//! The engine facade: starts partitions, routes ingestion, serves
//! client calls, takes checkpoints.
//!
//! One [`Engine`] is one S-Store node. It owns one partition thread per
//! configured partition (plus one EE thread each under
//! [`BoundaryMode::Channel`]). The caller's threads play the roles of
//! H-Store's *client* and S-Store's *stream injection module*: they
//! talk to partitions over channels, which is the round trip that PE
//! triggers exist to eliminate.
//!
//! Name resolution happens here, at the public API edge: stream and
//! procedure names are interned to dense ids ([`crate::names`]) when
//! the app is installed, every `&str` parameter is resolved exactly
//! once per call, and everything downstream (requests, the scheduler,
//! PE triggers, the command log) works with ids.
//!
//! Transactions reach a partition as typed `Submit` messages. Every
//! other operation the engine asks of a partition — checkpoint,
//! restore, GC, flush, drain, trigger switching, ad-hoc reads — goes
//! through one helper, `Engine::ask`: a closure run on the partition
//! thread whose answer comes back on a receiver of its own. A partition
//! whose thread has died answers every such request, and
//! [`Engine::close`], with an error that names it.
//!
//! [`BoundaryMode::Channel`]: crate::config::BoundaryMode::Channel

use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use crossbeam_channel::{bounded, Receiver};
use parking_lot::Mutex;
use sstore_common::hash::{FxBuildHasher, FxHashMap};
use sstore_common::{BatchId, Error, Lsn, ProcId, Result, TableId, Tuple, Value};
use sstore_sql::{BoundStatement, Planner, QueryResult};
use sstore_storage::Catalog;

use crate::admission::{AdmissionGate, AdmissionPermit};
use crate::app::App;
use crate::boundary::EeHandle;
use crate::checkpoint::{write_checkpoint_on, CheckpointFile, CheckpointKind, Manifest};
use crate::config::{BoundaryMode, EngineConfig, OverloadPolicy};
use crate::ee::{build_catalog, ExecutionEngine};
use crate::faults::CrashPoint;
use crate::metrics::EngineMetrics;
use crate::names::{AppIds, StreamMeta};
use crate::partition::{
    partition_down, spawn_partition, CallOutcome, Invocation, PartitionHandle, PartitionMsg,
    PartitionRuntime, PartitionSeed, TxnRequest, ADHOC_NAME, ADHOC_PROC,
};

/// The partition a key routes to, on an `n`-partition engine.
///
/// Deterministic across processes and engine restarts (FxHash with
/// fixed seed — no per-process randomization), which recovery relies
/// on: a replayed batch must land where the original did. Shared by
/// hash-routed ingestion and the exchange operator so a row's home
/// partition is the same wherever it is computed.
pub fn hash_partition(key: &Value, partitions: usize) -> usize {
    if partitions <= 1 {
        return 0;
    }
    let h = FxBuildHasher::default().hash_one(key);
    // Multiply-shift, NOT `h % n`: the modulo keeps only the hash's
    // low bits, which the multiply-xor FxHash mixes worst — small
    // integer keys (x-way ids, vote keys) all carried an even low bit
    // and landed every row in partition 0 of a 2-partition engine.
    // The 128-bit multiply ranges over the full word, is uniform for
    // any partition count, and is just as deterministic.
    (((h as u128) * (partitions as u128)) >> 64) as usize
}

/// Splits rows into per-partition sub-batches by hashing the value in
/// column `col`. Every row lands in exactly one sub-batch; sub-batch
/// `p` holds the rows with [`hash_partition`]`(row[col], partitions) ==
/// p`, in their original order.
pub fn split_by_key(rows: Vec<Tuple>, col: usize, partitions: usize) -> Vec<Vec<Tuple>> {
    let mut parts: Vec<Vec<Tuple>> = (0..partitions.max(1)).map(|_| Vec::new()).collect();
    for t in rows {
        let p = hash_partition(t.get(col), partitions);
        parts[p].push(t);
    }
    parts
}

/// Internal bootstrap data used by recovery.
pub(crate) struct Bootstrap {
    /// Per-partition EE image chains to restore, base first followed
    /// by deltas in chain order (None = fresh).
    pub images: Vec<Option<Vec<Vec<u8>>>>,
    /// Per-partition LSN to resume the command log after.
    pub resume_lsn: Vec<Option<Lsn>>,
    /// Whether PE triggers start enabled.
    pub triggers_enabled: bool,
    /// Initial per-stream batch counters (by stream name, as stored in
    /// checkpoints).
    pub batch_counters: HashMap<String, u64>,
    /// Per-partition exchange watermarks (by stream name, from
    /// checkpoints).
    pub exchange_floors: Vec<HashMap<String, u64>>,
    /// Highest checkpoint epoch found on disk (new checkpoints
    /// continue past it).
    pub checkpoint_epoch: u64,
    /// The validated checkpoint chain recovery restored from (epochs,
    /// base first); seeds the engine's durability state so the next
    /// checkpoint knows whether a delta may extend the chain.
    pub manifest_chain: Vec<u64>,
}

/// The engine's view of what the durability manifest says, plus the
/// cross-round state checkpoint rounds need: every field changes only
/// under the one mutex that holds it.
struct DurabilityState {
    /// Epochs of the live checkpoint chain, base first. Empty until
    /// the first successful checkpoint.
    chain: Vec<u64>,
    /// Latched when a checkpoint fails after any partition cut an
    /// image: the EEs cleared their dirty sets for images that were
    /// never adopted by the manifest, so the next round must write a
    /// full base or it would silently miss those changes.
    force_full: bool,
    /// The last epoch a checkpoint round took: the next gets `epoch + 1`
    /// (see [`CheckpointFile::epoch`]).
    epoch: u64,
}

/// One ingested batch, resolved and routed but not yet admitted:
/// everything [`Engine::ingest_admitted`] needs that does not depend
/// on admission or the batch id (which is drawn only after admission).
struct PreparedIngest {
    /// The border stream, interned.
    stream: TableId,
    /// Its PE-trigger target procedure.
    proc: ProcId,
    /// Per-partition sub-batches, in partition order.
    parts: Vec<(usize, Vec<Tuple>)>,
}

/// Upper bound on cached ad-hoc plans. Eviction is O(capacity) (a
/// linear least-recently-used scan), which at this size is noise next
/// to planning even one statement.
const PLAN_CACHE_CAPACITY: usize = 128;

/// LRU cache of bound ad-hoc statements, keyed by SQL text.
///
/// Plans depend only on the catalog's static layout (table/column
/// declarations), never on data, and that layout is fixed at
/// [`Engine::start`] — so a cached plan and a fresh plan are
/// interchangeable for the engine's lifetime.
struct PlanCache {
    /// Monotonic use stamp for LRU ordering.
    tick: std::sync::atomic::AtomicU64,
    entries: Mutex<FxHashMap<String, CachedPlan>>,
}

struct CachedPlan {
    last_used: u64,
    stmt: Arc<BoundStatement>,
}

impl PlanCache {
    fn new() -> Self {
        PlanCache {
            tick: std::sync::atomic::AtomicU64::new(0),
            entries: Mutex::new(FxHashMap::default()),
        }
    }
}

/// A control-plane answer still in flight from one partition
/// ([`Engine::ask`]).
struct Pending<R> {
    partition: usize,
    rx: Receiver<R>,
}

impl<R> Pending<R> {
    /// Waits for the answer; a partition that died first is named in
    /// the error.
    fn wait(self) -> Result<R> {
        self.rx.recv().map_err(|_| partition_down(self.partition))
    }
}

/// A running S-Store node.
pub struct Engine {
    config: EngineConfig,
    app: App,
    ids: Arc<AppIds>,
    partitions: Vec<PartitionHandle>,
    metrics: Arc<EngineMetrics>,
    /// Per-partition admission gates: every client-origin request
    /// (border sub-batch, OLTP call, ad-hoc SQL) holds one credit from
    /// its target partition's gate for its full lifetime. Internal
    /// traffic bypasses the gates entirely.
    gates: Vec<Arc<AdmissionGate>>,
    /// Catalog replica used to plan ad-hoc SQL at the engine edge
    /// (same declaration order as every partition's EE catalog, so
    /// table ids agree — see [`build_catalog`]). Holds schema only,
    /// never data. Behind a mutex because table read-stats use `Cell`
    /// (the catalog is not `Sync`) — planning is the cold path, and
    /// the lock keeps `Engine` shareable across client threads.
    adhoc_catalog: Mutex<Catalog>,
    /// LRU cache of bound ad-hoc plans keyed by SQL text. Recovery
    /// replays `LogKind::AdHoc` through [`Engine::plan_adhoc`] too, so
    /// repeated replayed statements plan once.
    plan_cache: PlanCache,
    /// Per-stream next-batch counters, indexed by [`TableId`].
    batch_counters: Mutex<Vec<u64>>,
    /// Live checkpoint chain, force-full latch and epoch. One mutex
    /// serializes concurrent [`Engine::checkpoint`] calls on the
    /// manifest they both want to advance.
    durability: Mutex<DurabilityState>,
}

impl Engine {
    /// Starts an engine for `app` under `config`.
    pub fn start(config: EngineConfig, app: App) -> Result<Engine> {
        Self::start_with(config, app, None)
    }

    pub(crate) fn start_with(
        config: EngineConfig,
        app: App,
        mut bootstrap: Option<Bootstrap>,
    ) -> Result<Engine> {
        let metrics = Arc::new(EngineMetrics::new());
        let ids = Arc::new(AppIds::build(&app)?);
        let mut partitions = Vec::with_capacity(config.partitions);
        let triggers_enabled = bootstrap.as_ref().is_none_or(|b| b.triggers_enabled);
        // All channels exist before any thread starts: each partition
        // holds senders to every peer, which is how exchange hops ship
        // sub-batches without round-tripping through the engine facade.
        let mut txs = Vec::with_capacity(config.partitions);
        let mut rxs = Vec::with_capacity(config.partitions);
        for _ in 0..config.partitions {
            let (tx, rx) = crossbeam_channel::unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        for (p, rx) in rxs.into_iter().enumerate() {
            let (ee, proc_stmts) = ExecutionEngine::install(&app, ids.clone(), metrics.clone())?;
            let handle = match config.boundary {
                BoundaryMode::Inline => EeHandle::inline(ee, metrics.clone()),
                BoundaryMode::Channel => EeHandle::channel(ee, metrics.clone())?,
            };
            let seed = PartitionSeed {
                id: p,
                rx,
                peers: txs.clone(),
                triggers_enabled,
                resume_lsn: bootstrap.as_ref().and_then(|b| b.resume_lsn[p]),
                exchange_floor: bootstrap
                    .as_ref()
                    .map(|b| b.exchange_floors[p].clone())
                    .unwrap_or_default(),
            };
            let join = spawn_partition(
                seed,
                config.clone(),
                &app,
                ids.clone(),
                handle,
                proc_stmts,
                metrics.clone(),
            )?;
            partitions.push(PartitionHandle::new(p, txs[p].clone(), join));
        }
        let images = bootstrap.as_mut().map(|b| std::mem::take(&mut b.images)).unwrap_or_default();

        let mut counters = vec![0u64; ids.table_count()];
        if let Some(b) = &bootstrap {
            for (name, v) in &b.batch_counters {
                if let Some(id) = ids.table_id(name) {
                    counters[id.index()] = counters[id.index()].max(*v);
                }
            }
        }

        let gates = (0..config.partitions)
            .map(|_| AdmissionGate::new(config.admission_credits))
            .collect();
        let adhoc_catalog = Mutex::new(build_catalog(&app, &ids)?);

        let engine = Engine {
            config,
            app,
            ids,
            partitions,
            metrics,
            gates,
            adhoc_catalog,
            plan_cache: PlanCache::new(),
            batch_counters: Mutex::new(counters),
            durability: Mutex::new(DurabilityState {
                chain: bootstrap.as_ref().map(|b| b.manifest_chain.clone()).unwrap_or_default(),
                force_full: false,
                epoch: bootstrap.as_ref().map_or(0, |b| b.checkpoint_epoch),
            }),
        };
        // Every partition restores its own chain on its own thread:
        // hand each its images (moved, not copied), then wait for all,
        // so restore wall time is the slowest partition's, as replay's
        // is.
        let mut restoring = Vec::new();
        for (p, chain) in images.into_iter().enumerate() {
            let Some(chain) = chain else { continue };
            restoring.push(engine.ask(p, move |rt| rt.restore(chain))?);
        }
        for r in restoring {
            r.wait()??;
        }
        Ok(engine)
    }

    /// Engine metrics (shared with all partition threads).
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// The configuration this engine runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The application definition.
    pub fn app(&self) -> &App {
        &self.app
    }

    /// The interned name ↔ id maps of the installed application.
    pub fn ids(&self) -> &Arc<AppIds> {
        &self.ids
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    // ------------------------------------------------------------------
    // Admission control (client edge)
    // ------------------------------------------------------------------

    /// Acquires one admission credit on `partition` without touching
    /// the shed metrics — callers account the rejection at their own
    /// granularity ([`Engine::admit`] for single requests,
    /// [`Engine::admit_all`] once per sub-request of a split batch).
    fn admit_quiet(&self, partition: usize, origin: &str) -> Result<AdmissionPermit> {
        let gate = self
            .gates
            .get(partition)
            .ok_or_else(|| Error::not_found("partition", partition.to_string()))?;
        match self.config.overload {
            OverloadPolicy::Shed => gate.try_acquire().ok_or_else(|| {
                Error::Overloaded(format!(
                    "shed {origin}: all {} admission credits of partition {partition} are \
                     held by in-flight requests",
                    gate.capacity()
                ))
            }),
            OverloadPolicy::Block { timeout } => gate.acquire_timeout(timeout).ok_or_else(|| {
                Error::Overloaded(format!(
                    "{origin}: no admission credit freed on partition {partition} within \
                     {timeout:?} ({} credits, all held)",
                    gate.capacity()
                ))
            }),
        }
    }

    /// Acquires one admission credit on `partition` for a
    /// client-origin request, per the configured
    /// [`OverloadPolicy`]. On rejection — an empty gate under `Shed`,
    /// or a `Block` timeout expiring — bumps the shed metrics for
    /// `origin` (the stream or procedure name) and returns
    /// [`Error::Overloaded`] *before any state is touched*.
    fn admit(&self, partition: usize, origin: &str) -> Result<AdmissionPermit> {
        let permit = self.admit_quiet(partition, origin);
        if matches!(permit, Err(Error::Overloaded(_))) {
            self.metrics.bump_shed(origin);
        }
        permit
    }

    /// All-or-nothing admission for a multi-partition request (one
    /// credit per sub-request): if any acquisition is rejected, the
    /// permits already acquired are dropped — returning their credits —
    /// and the whole request is rejected with nothing delivered.
    ///
    /// Shed accounting counts *sub-requests*, not acquisition
    /// attempts: a split batch that fails all-or-nothing admission
    /// sheds every one of its sub-requests (including the ones whose
    /// credits were acquired and rolled back, and the ones never
    /// attempted), so `shed_batches` always equals offered minus
    /// admitted sub-requests. `offered` is the batch's total
    /// sub-request count (== the iterator's length), passed separately
    /// so the hot path needs no collected partition list.
    fn admit_all(
        &self,
        partitions: impl Iterator<Item = usize>,
        offered: usize,
        origin: &str,
    ) -> Result<Vec<AdmissionPermit>> {
        let mut permits = Vec::with_capacity(offered);
        for p in partitions {
            match self.admit_quiet(p, origin) {
                Ok(permit) => permits.push(permit),
                Err(e) => {
                    drop(permits); // roll back: credits return to their gates
                    if matches!(e, Error::Overloaded(_)) {
                        self.metrics.bump_shed_n(origin, offered as u64);
                    }
                    return Err(e);
                }
            }
        }
        Ok(permits)
    }

    /// Admission credits currently held by in-flight client requests
    /// on one partition (bounded by
    /// [`EngineConfig::admission_credits`]). After [`Engine::drain`]
    /// with no concurrent submitters this returns 0: every credit is
    /// back in the gate.
    pub fn admitted_in_flight(&self, partition: usize) -> usize {
        self.gates[partition].in_use()
    }

    /// Free admission credits on one partition.
    pub fn admission_available(&self, partition: usize) -> usize {
        self.gates[partition].available()
    }

    // ------------------------------------------------------------------
    // Stream injection (push)
    // ------------------------------------------------------------------

    /// Splits an ingested batch into per-partition sub-batches that
    /// share one logical [`BatchId`]: each row goes to the partition
    /// its key hashes to ([`hash_partition`]). A mixed-key batch thus
    /// fans out across partitions instead of being rejected; each
    /// sub-batch commits as its own border transaction, and the logical
    /// batch id ties them back together through the workflow.
    ///
    /// When an exchange stream is reachable downstream
    /// ([`StreamMeta::feeds_exchange`]), *every* partition receives a
    /// sub-batch — empty ones included — so each later exchange hop
    /// gets exactly one sub-batch per source partition per batch (the
    /// alignment the exchange merge counts on). Otherwise only
    /// partitions that own rows participate.
    fn split_for_ingest(&self, meta: &StreamMeta, rows: Vec<Tuple>) -> Vec<(usize, Vec<Tuple>)> {
        let n = self.partitions.len();
        let routed = match meta.partition_col {
            Some(col) if n > 1 => split_by_key(rows, col, n),
            // Unpartitioned stream (or 1 partition): everything on 0.
            _ => {
                let mut parts: Vec<Vec<Tuple>> = (0..n).map(|_| Vec::new()).collect();
                parts[0] = rows;
                parts
            }
        };
        let broadcast = meta.feeds_exchange && n > 1;
        let mut out: Vec<(usize, Vec<Tuple>)> = routed
            .into_iter()
            .enumerate()
            .filter(|(_, r)| broadcast || !r.is_empty())
            .collect();
        if out.is_empty() {
            // Empty batch on a non-broadcast stream: still a (trivial)
            // border transaction somewhere.
            out.push((0, Vec::new()));
        }
        out
    }

    /// Resolves, validates, and routes one ingested batch — the part
    /// of ingestion that can fail before admission is even attempted.
    /// No batch id is drawn here: that happens after admission
    /// ([`Engine::ingest_admitted`]), so a parked or shed caller never
    /// holds an id.
    fn prepare_ingest(&self, stream: &str, rows: Vec<Tuple>) -> Result<PreparedIngest> {
        let sid = self
            .ids
            .table_id(stream)
            .ok_or_else(|| Error::not_found("stream", stream))?;
        let meta = self.ids.table(sid).stream.as_ref().ok_or_else(|| {
            Error::StreamViolation(format!("{stream} is not a stream"))
        })?;
        // Exchange streams are interior workflow edges: their batches
        // come from the one validated producer procedure, with batch
        // ids drawn from its border stream's counter. Externally
        // ingested batches would use this stream's own counter (id
        // collisions in the merge) and skip the every-source alignment
        // broadcast (merges waiting forever) — reject them at the edge.
        if meta.exchange {
            return Err(Error::StreamViolation(format!(
                "cannot ingest into exchange stream {stream}: exchange batches are \
                 produced by the workflow, not injected"
            )));
        }
        // One ingested batch is one border transaction, so the stream
        // must trigger exactly one procedure.
        let proc = match self.ids.pe_targets_of(sid) {
            [proc] => *proc,
            [] => return Err(Error::not_found("PE trigger for border stream", stream)),
            targets => {
                let names: Vec<&str> = targets.iter().map(|&p| &**self.ids.proc_name(p)).collect();
                return Err(Error::StreamViolation(format!(
                    "cannot ingest into {stream}: it triggers {} procedures ({}), and an \
                     ingested batch runs exactly one border transaction",
                    names.len(),
                    names.join(", ")
                )));
            }
        };
        // Validate rows against the stream schema up front so bad input
        // fails at the injection site, not inside the partition.
        for r in &rows {
            meta.schema.validate(r.values())?;
        }
        Ok(PreparedIngest { stream: sid, proc, parts: self.split_for_ingest(meta, rows) })
    }

    /// Admits one prepared batch, then assigns its id and sends its
    /// sub-requests. Three ordering guarantees live here:
    ///
    /// * Admission is all-or-nothing and happens *first* — a shed (or
    ///   timed-out) batch touched nothing, and the multi-second park a
    ///   `Block` caller may take happens before any id is drawn.
    /// * The batch id is assigned and every sub-request sent *under
    ///   the counters lock*: sends to the unbounded partition channels
    ///   never block, so the lock is cheap, and it makes id order ==
    ///   channel order per stream — concurrent ingesters cannot
    ///   invert per-stream, per-partition batch order (which timed
    ///   streams' watermarks and exchange merges both count on).
    /// * The sub-requests are built here, after admission, so their
    ///   `admitted_at` stamp starts the clock when the request was
    ///   actually admitted — gate-park time is not queue-wait.
    ///
    /// A delivery failure names exactly which partitions received
    /// their sub-batch and which did not, so the caller knows what
    /// landed.
    fn ingest_admitted(
        &self,
        stream: &str,
        prepared: PreparedIngest,
        mut reply_for: impl FnMut(usize) -> Option<crossbeam_channel::Sender<Result<CallOutcome>>>,
    ) -> Result<BatchId> {
        let PreparedIngest { stream: sid, proc, parts } = prepared;
        let permits =
            self.admit_all(parts.iter().map(|(p, _)| *p), parts.len(), stream)?;
        let mut counters = self.batch_counters.lock();
        let c = &mut counters[sid.index()];
        *c += 1;
        let batch = BatchId(*c);
        let mut delivered: Vec<usize> = Vec::with_capacity(parts.len());
        let mut pending = parts.into_iter().zip(permits);
        while let Some(((p, sub), permit)) = pending.next() {
            let mut req = TxnRequest::internal(
                proc,
                Invocation::Border { stream: sid, rows: sub },
                Some(batch),
            )
            .admitted(permit);
            req.reply = reply_for(p);
            let sent = self.partitions[p].tx.send(PartitionMsg::Submit(req));
            if sent.is_err() {
                let mut undelivered: Vec<usize> = vec![p];
                undelivered.extend(pending.map(|((q, _), _)| q));
                return Err(Error::InvalidState(format!(
                    "partition {p} is down: batch {batch} on stream {stream} was only \
                     partially delivered — sub-batches reached partition(s) {delivered:?}, \
                     but not {undelivered:?}",
                )));
            }
            delivered.push(p);
        }
        Ok(batch)
    }

    /// Injects an atomic batch asynchronously (the normal streaming
    /// path). Returns the assigned batch id immediately. Rows are
    /// routed to partitions by partition-key hash; a batch that mixes
    /// keys is split into per-partition sub-batches sharing this batch
    /// id.
    ///
    /// Each sub-batch is admission-controlled (one credit per
    /// sub-request, acquired before anything is sent): under
    /// [`OverloadPolicy::Shed`] an over-capacity batch is rejected
    /// whole with [`Error::Overloaded`] and no effect; under
    /// [`OverloadPolicy::Block`] this call parks until credits free
    /// (bounding client-origin work in flight to the configured
    /// credits), failing the same way only if the timeout expires.
    pub fn ingest(&self, stream: &str, rows: Vec<Tuple>) -> Result<BatchId> {
        let prepared = self.prepare_ingest(stream, rows)?;
        self.ingest_admitted(stream, prepared, |_| None)
    }

    /// Injects an atomic batch and waits for the *border*
    /// transaction(s) to commit (downstream transactions may still be
    /// queued). A mixed-key batch waits for every partition's border
    /// sub-transaction; the outcome carries the lowest-participating-
    /// partition's result and the pending activations of all
    /// sub-transactions, in partition order. In H-Store mode those are
    /// the activations the caller must drive itself.
    ///
    /// Atomicity is per *sub-batch*: each partition's border
    /// transaction commits or aborts on its own (there is no
    /// cross-partition commit protocol — the same guarantee a
    /// multi-node deployment would give without distributed
    /// transactions). If any sub-transaction fails, the returned error
    /// names which partitions committed and which failed, so the
    /// caller knows exactly what landed.
    pub fn ingest_sync(&self, stream: &str, rows: Vec<Tuple>) -> Result<(BatchId, CallOutcome)> {
        let prepared = self.prepare_ingest(stream, rows)?;
        let mut waits: Vec<(usize, crossbeam_channel::Receiver<Result<CallOutcome>>)> = Vec::new();
        let batch = self.ingest_admitted(stream, prepared, |p| {
            let (tx, rx) = bounded(1);
            waits.push((p, rx));
            Some(tx)
        })?;
        // Wait for EVERY sub-transaction before judging the batch: an
        // early return on the first error would silently leave the
        // later partitions' commits unreported.
        let mut merged = CallOutcome::default();
        let mut committed: Vec<usize> = Vec::new();
        let mut failed: Vec<(usize, Error)> = Vec::new();
        let total = waits.len();
        for (i, (p, rx)) in waits.into_iter().enumerate() {
            // A lost reply (partition thread died, or its queue was
            // dropped mid-flight) is that partition's failure, not the
            // whole call's: early-returning here would leave the later
            // partitions' commits unreported — exactly the half-named
            // partial-delivery error the error message below exists to
            // prevent.
            match rx.recv() {
                Ok(Ok(out)) => {
                    if i == 0 {
                        merged.result = out.result;
                    }
                    merged.pending.extend(out.pending);
                    committed.push(p);
                }
                Ok(Err(e)) => failed.push((p, e)),
                Err(_) => failed.push((p, partition_down(p))),
            }
        }
        if !failed.is_empty() {
            // A single-partition batch failed atomically: surface the
            // root error as-is so clients see its real identity (and
            // wire code) — wrapping a clean Overloaded rejection in
            // InvalidState would turn "back off" into "fail fast".
            if total == 1 && committed.is_empty() {
                return Err(failed.remove(0).1);
            }
            let (first_p, first_err) = failed.first().expect("non-empty");
            return Err(Error::InvalidState(format!(
                "batch {batch} on stream {stream} half-applied: sub-batches failed on \
                 partition(s) {:?} (first error on {first_p}: {first_err}) but committed \
                 on {committed:?}; split batches are not atomic across partitions",
                failed.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            )));
        }
        Ok((batch, merged))
    }

    // ------------------------------------------------------------------
    // Client calls (pull)
    // ------------------------------------------------------------------

    fn resolve_proc(&self, name: &str) -> Result<ProcId> {
        self.ids.proc_id(name).ok_or_else(|| Error::not_found("procedure", name))
    }

    pub(crate) fn resolve_stream(&self, name: &str) -> Result<TableId> {
        self.ids.table_id(name).ok_or_else(|| Error::not_found("stream", name))
    }

    /// Invokes an OLTP stored procedure on partition 0 and waits.
    pub fn call(&self, proc: &str, params: Vec<Value>) -> Result<CallOutcome> {
        self.call_at(0, proc, params)
    }

    /// Invokes an OLTP stored procedure on a given partition and
    /// waits. Admission-controlled like every client-origin request
    /// (one credit, held until the transaction commits or aborts).
    pub fn call_at(&self, partition: usize, proc: &str, params: Vec<Value>) -> Result<CallOutcome> {
        let proc_id = self.resolve_proc(proc)?;
        let permit = self.admit(partition, proc)?;
        let (tx, rx) = bounded(1);
        let req = TxnRequest::internal(proc_id, Invocation::Oltp { params }, None)
            .with_reply(tx)
            .admitted(permit);
        self.submit(partition, req)?;
        rx.recv().map_err(|_| partition_down(partition))?
    }

    /// Runs one ad-hoc SQL statement as its own transaction on a
    /// partition: planned here at the engine edge with the shared
    /// [`Planner`] catalog, then executed through the normal OLTP
    /// invocation path — admitted (one credit), command-logged (it
    /// replays from its text), and undo-able (a failed statement
    /// aborts and rolls back like any stored procedure). This is the
    /// paper's hybrid access: OLTP-side one-shot reads *and writes*
    /// against the same tables the streaming workflows maintain.
    ///
    /// Stream/window tables remain off-limits for ad-hoc *writes* (no
    /// batch discipline outside a workflow); use [`Engine::query`] for
    /// lock-free read-only inspection without admission or logging.
    pub fn query_at(&self, partition: usize, sql: &str, params: Vec<Value>) -> Result<QueryResult> {
        let stmt = self.prepare(sql)?;
        self.query_prepared(partition, sql, stmt, params)
    }

    /// Plans one ad-hoc statement once, for repeated execution via
    /// [`Engine::query_prepared`] with fresh parameters each time —
    /// the session-scoped prepared-statement path a server edge needs
    /// (plan once per session, re-bind per execute). The plan is
    /// bound against the shared catalog layout, so it is valid on
    /// every partition.
    pub fn prepare(&self, sql: &str) -> Result<Arc<BoundStatement>> {
        self.plan_adhoc(sql)
    }

    /// Executes a statement previously planned by [`Engine::prepare`]
    /// as its own transaction on a partition. `sql` must be the text
    /// the statement was planned from — it is what the command log
    /// records, and what recovery replans on replay. Admitted,
    /// logged, and undo-able exactly like [`Engine::query_at`].
    pub fn query_prepared(
        &self,
        partition: usize,
        sql: &str,
        stmt: Arc<BoundStatement>,
        params: Vec<Value>,
    ) -> Result<QueryResult> {
        let permit = self.admit(partition, ADHOC_NAME)?;
        let (tx, rx) = bounded(1);
        let req = TxnRequest::internal(
            ADHOC_PROC,
            Invocation::AdHoc { sql: sql.to_owned(), stmt, params },
            None,
        )
        .with_reply(tx)
        .admitted(permit);
        self.submit(partition, req)?;
        let outcome = rx.recv().map_err(|_| partition_down(partition))??;
        Ok(outcome.result)
    }

    /// Plans one ad-hoc statement against the engine-edge catalog
    /// replica (shared layout with every partition's EE, so the bound
    /// table ids are valid everywhere). Plans are cached by SQL text
    /// ([`PlanCache`]); a hit returns the same `Arc<BoundStatement>`
    /// the prepare path would have produced. Recovery's `LogKind::AdHoc`
    /// replay comes through here too and benefits identically.
    pub(crate) fn plan_adhoc(&self, sql: &str) -> Result<Arc<BoundStatement>> {
        use std::sync::atomic::Ordering;
        if let Some(hit) = self.plan_cache.entries.lock().get_mut(sql) {
            hit.last_used = self.plan_cache.tick.fetch_add(1, Ordering::Relaxed);
            EngineMetrics::bump(&self.metrics.adhoc_plan_hits);
            return Ok(hit.stmt.clone());
        }
        let stmt = {
            let catalog = self.adhoc_catalog.lock();
            Arc::new(Planner::new(&catalog).plan_sql(sql)?)
        };
        EngineMetrics::bump(&self.metrics.adhoc_plan_misses);
        let mut entries = self.plan_cache.entries.lock();
        if entries.len() >= PLAN_CACHE_CAPACITY {
            if let Some(victim) =
                entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                entries.remove(&victim);
            }
        }
        let last_used = self.plan_cache.tick.fetch_add(1, Ordering::Relaxed);
        entries.insert(sql.to_owned(), CachedPlan { last_used, stmt: stmt.clone() });
        Ok(stmt)
    }

    /// H-Store-mode client driving: runs one interior transaction for a
    /// batch a predecessor committed, and waits. Exempt from admission
    /// — this drives *already-admitted* work downstream, exactly like
    /// a PE trigger would in S-Store mode.
    pub fn call_interior(
        &self,
        partition: usize,
        proc: &str,
        stream: &str,
        batch: BatchId,
    ) -> Result<CallOutcome> {
        let (tx, rx) = bounded(1);
        let req = TxnRequest::internal(
            self.resolve_proc(proc)?,
            Invocation::Interior { stream: self.resolve_stream(stream)? },
            Some(batch),
        )
        .with_reply(tx);
        self.submit(partition, req)?;
        rx.recv().map_err(|_| partition_down(partition))?
    }

    /// H-Store-mode client loop: drives every pending activation of an
    /// outcome to completion, synchronously and in order (this is the
    /// per-step client round trip of §4.2/§4.5).
    pub fn drive(&self, partition: usize, outcome: CallOutcome) -> Result<QueryResult> {
        let mut last = outcome.result;
        let mut stack: Vec<_> = outcome.pending;
        while !stack.is_empty() {
            let mut next = Vec::new();
            for act in stack {
                let out = self.call_interior(partition, &act.proc, &act.stream, act.batch)?;
                last = out.result;
                next.extend(out.pending);
            }
            stack = next;
        }
        Ok(last)
    }

    pub(crate) fn submit(&self, partition: usize, req: TxnRequest) -> Result<()> {
        self.send(partition, PartitionMsg::Submit(req))
    }

    fn send(&self, partition: usize, msg: PartitionMsg) -> Result<()> {
        self.partitions
            .get(partition)
            .ok_or_else(|| Error::not_found("partition", partition.to_string()))?
            .tx
            .send(msg)
            .map_err(|_| partition_down(partition))
    }

    /// The control plane's one helper: runs `f` on `partition`'s thread
    /// between transactions and returns the answer still in flight, so
    /// a caller can fan one operation out to every partition before it
    /// waits on any.
    fn ask<R: Send + 'static>(
        &self,
        partition: usize,
        f: impl FnOnce(&mut PartitionRuntime) -> R + Send + 'static,
    ) -> Result<Pending<R>> {
        let (tx, rx) = bounded(1);
        self.send(partition, PartitionMsg::Run(Box::new(move |rt| drop(tx.send(f(rt))))))?;
        Ok(Pending { partition, rx })
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Blocks until every partition's queue is empty (callers must have
    /// stopped submitting).
    ///
    /// A drained partition can be re-activated by an exchange
    /// sub-batch another partition shipped after replying, so one pass
    /// is not enough on multi-partition engines: passes repeat until a
    /// full pass observes no exchange activity at all. Senders straddle
    /// each channel send with two counters (`exchange_sends_started`
    /// before, `exchange_sends` after), so a pass is conclusive only
    /// when both are unchanged across it *and* equal to each other —
    /// `started != sends` means some sub-batch was counted but may not
    /// have reached its receiver's channel when that receiver drained.
    /// A send that completed before the pass began is covered by the
    /// receiver's own drain reply (its channel must be empty).
    pub fn drain(&self) -> Result<()> {
        // SeqCst pairs with the SeqCst bumps around the channel send in
        // exchange_send: without it, a weakly-ordered machine could let
        // this thread observe stale counters even after the drain-reply
        // round trips.
        let counters = || {
            (
                self.metrics.exchange_sends_started.load(std::sync::atomic::Ordering::SeqCst),
                self.metrics.exchange_sends.load(std::sync::atomic::Ordering::SeqCst),
            )
        };
        loop {
            let before = counters();
            let mut waits = Vec::new();
            for p in 0..self.partitions.len() {
                waits.push(self.ask(p, PartitionRuntime::drain)?);
            }
            for w in waits {
                let p = w.partition;
                w.wait()?.recv().map_err(|_| partition_down(p))?;
            }
            let after = counters();
            if before == after && after.0 == after.1 {
                return Ok(());
            }
        }
    }

    /// Forces command-log flushes on every partition.
    pub fn flush_logs(&self) -> Result<()> {
        for p in 0..self.partitions.len() {
            self.ask(p, PartitionRuntime::flush_log)?.wait()??;
        }
        Ok(())
    }

    /// Per-stream batch counters as a name-keyed map (checkpoint form).
    fn counters_by_name(&self) -> HashMap<String, u64> {
        let counters = self.batch_counters.lock();
        self.ids
            .streams()
            .filter(|(id, _)| counters[id.index()] > 0)
            .map(|(id, meta)| (meta.name.to_string(), counters[id.index()]))
            .collect()
    }

    /// Takes a checkpoint of every partition, written to
    /// [`EngineConfig::checkpoint_path`]. Call at a quiescent point
    /// (after [`Engine::drain`]): per-partition images are taken one
    /// after another, and cross-partition consistency comes from
    /// nothing being in flight between them.
    ///
    /// **Incremental**: a round writes a full *base* image only when
    /// the chain is empty, has grown to
    /// [`EngineConfig::delta_chain_max`] epochs (compaction), or a
    /// previous round failed after cutting images; otherwise it writes
    /// a *delta* carrying only state dirtied since the last round.
    ///
    /// **Adoption order** makes every crash window recoverable: images
    /// of the new epoch are written first (unreferenced until adopted),
    /// then the manifest atomically adopts the new chain, and only
    /// then are dead log segments and superseded images unlinked. A
    /// crash before the manifest write leaves the old chain live and
    /// the new images as ignorable litter; a crash after it leaves
    /// dead files the next round's GC re-collects.
    pub fn checkpoint(&self) -> Result<()> {
        let mut dur = self.durability.lock();
        let full = dur.force_full
            || dur.chain.is_empty()
            || dur.chain.len() >= self.config.delta_chain_max;
        dur.epoch += 1;
        let epoch = dur.epoch;
        // Latch pessimistically: the first partition to cut an image
        // clears its dirty set, so any failure from here until the
        // round fully succeeds must force the next round full.
        dur.force_full = true;
        self.checkpoint_round(&mut dur, full, epoch)?;
        dur.force_full = false;
        Ok(())
    }

    fn checkpoint_round(
        &self,
        dur: &mut DurabilityState,
        full: bool,
        epoch: u64,
    ) -> Result<()> {
        let counters = self.counters_by_name();
        // Phase 1: cut every partition's image in memory.
        let mut images = Vec::with_capacity(self.partitions.len());
        for p in 0..self.partitions.len() {
            images.push(self.ask(p, move |rt| rt.checkpoint(full))?.wait()??);
        }
        // Crash point: every image collected, no file written yet.
        self.config.faults.hit(CrashPoint::MidCheckpointPhase1, None)?;
        // Phase 2: write the epoch's image files. Nothing references
        // them until the manifest below adopts the epoch, so a crash
        // anywhere in this loop only litters ignorable files.
        let kind = if full { CheckpointKind::Base } else { CheckpointKind::Delta };
        let mut floors = Vec::with_capacity(self.partitions.len());
        let mut ck_bytes = 0u64;
        for (p, (ee_image, last_lsn, exchange_floor)) in images.into_iter().enumerate() {
            floors.push(last_lsn.raw());
            let ck = CheckpointFile {
                epoch,
                kind,
                last_lsn,
                batch_counters: counters.clone(),
                exchange_floor,
                ee_image,
            };
            ck_bytes += write_checkpoint_on(
                self.config.vfs.as_ref(),
                &self.config.checkpoint_path(p, epoch),
                &ck,
            )?;
            // Crash point: some partitions' images of this epoch are on
            // disk, but the manifest still names the old chain.
            self.config.faults.hit(CrashPoint::MidCheckpointPhase2, None)?;
        }
        self.metrics.checkpoint_bytes.store(ck_bytes, std::sync::atomic::Ordering::Relaxed);
        if full && !dur.chain.is_empty() {
            // Crash point: compaction — the new base is durable but the
            // manifest still names the old base + delta chain.
            self.config.faults.hit(CrashPoint::MidCompaction, None)?;
        }
        let mut chain = if full { Vec::new() } else { dur.chain.clone() };
        chain.push(epoch);
        let manifest = Manifest { epochs: chain.clone(), floors };
        crate::checkpoint::write_manifest_on(
            self.config.vfs.as_ref(),
            &self.config.manifest_path(),
            &manifest,
        )?;
        dur.chain = chain;
        // Crash point: the new chain is adopted, dead segments and
        // superseded images are still on disk.
        self.config.faults.hit(CrashPoint::PostManifestPreUnlink, None)?;
        // GC: each partition drops log segments wholly below its floor
        // (crash-safe — the manifest no longer needs them), then the
        // engine drops snapshot images of epochs outside the chain.
        let (mut deleted, mut segs, mut bytes) = (0u64, 0u64, 0u64);
        for p in 0..self.partitions.len() {
            let covered = manifest.floor(p);
            let (d, s, b) = self.ask(p, move |rt| rt.truncate_log(covered))?.wait()??;
            deleted += d as u64;
            segs += s as u64;
            bytes += b;
        }
        self.metrics.gc_segments_deleted.fetch_add(deleted, std::sync::atomic::Ordering::Relaxed);
        self.metrics.log_segments.store(segs, std::sync::atomic::Ordering::Relaxed);
        self.metrics.log_bytes.store(bytes, std::sync::atomic::Ordering::Relaxed);
        self.gc_checkpoint_images(&dur.chain)
    }

    /// Unlinks every snapshot image whose epoch is not in the live
    /// chain: superseded bases and deltas after a compaction, and
    /// litter from rounds that crashed between phase 2 and adoption.
    fn gc_checkpoint_images(&self, live: &[u64]) -> Result<()> {
        let vfs = self.config.vfs.as_ref();
        for (epoch, path) in crate::checkpoint::list_images(vfs, &self.config.data_dir)? {
            if !live.contains(&epoch) {
                self.config.faults.hit(CrashPoint::PreSegmentUnlink, None)?;
                vfs.remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// Ad-hoc read-only query against one partition (tests, examples,
    /// dashboards — the "OLTP side" of the hybrid workload).
    pub fn query(&self, partition: usize, sql: &str, params: Vec<Value>) -> Result<QueryResult> {
        let sql = sql.to_owned();
        self.ask(partition, move |rt| rt.query(sql, params))?.wait()?
    }

    /// Enables or disables PE triggers on every partition (recovery
    /// protocol, §3.2.5).
    pub(crate) fn set_triggers(&self, enabled: bool) -> Result<()> {
        for p in 0..self.partitions.len() {
            self.ask(p, move |rt| rt.set_triggers(enabled))?.wait()?;
        }
        Ok(())
    }

    /// Fires PE triggers for all dangling stream batches (recovery).
    pub(crate) fn fire_dangling(&self) -> Result<usize> {
        let mut total = 0;
        for p in 0..self.partitions.len() {
            total += self.ask(p, PartitionRuntime::fire_dangling)?.wait()??;
        }
        Ok(total)
    }

    /// Stops all partitions, *propagating* command-log close failures:
    /// a failed final flush/fsync means the log tail was lost, and a
    /// durability-sensitive caller must not mistake that for a clean
    /// shutdown. Every partition is still stopped (and joined) even
    /// when an earlier one fails; the first error is returned.
    pub fn close(mut self) -> Result<()> {
        let mut first: Option<Error> = None;
        for p in &mut self.partitions {
            if let Err(e) = p.close() {
                first.get_or_insert(e);
            }
        }
        match first {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Stops all partitions, best-effort (log-close errors ignored —
    /// prefer [`Engine::close`] when durability matters).
    pub fn shutdown(self) {
        let _ = self.close();
    }
}
