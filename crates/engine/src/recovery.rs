//! Crash recovery (§2.4, §3.2.5): strong and weak.
//!
//! Both start from the latest checkpoint image and the command log.
//! They differ in what was logged and how replay is driven:
//!
//! * **Strong** — every transaction was logged. Replay proceeds in
//!   commit (LSN) order *with PE triggers disabled*, so interior
//!   transactions run exactly once, driven by their own log records.
//!   The recovery driver plays H-Store's client: each record is
//!   submitted and confirmed synchronously — one round trip per record,
//!   which is why strong recovery time grows with workflow length
//!   (Figure 9b). After replay, triggers are re-enabled and any stream
//!   still holding batches fires its PE trigger.
//!
//! * **Weak** — only border transactions (and OLTP calls) were logged.
//!   PE triggers stay *enabled*: first the triggers of batches restored
//!   by the snapshot fire, then each border record is re-ingested; the
//!   interior work re-derives through the normal trigger path, entirely
//!   inside the engine — no per-interior client round trip, which is why
//!   weak recovery time stays flat in workflow length.
//!
//! # Multi-partition workflows (exchange edges)
//!
//! Each partition's log replays against that partition, so a workflow
//! spanning partitions recovers from the union of per-partition logs:
//!
//! * **Strong**: exchange *deliveries* were logged with their rows
//!   ([`LogKind::Exchange`]), so every partition replays independently.
//!   Replaying an upstream commit re-emits its exchange batch locally
//!   (triggers are off, so nothing ships), leaving it dangling; after
//!   replay, [`Engine::fire_dangling`] re-ships those batches and the
//!   receivers drop the ones their exchange watermark already covers —
//!   deliveries the crash cut short (logged upstream, not yet logged
//!   downstream) are thereby re-derived, everything else is
//!   exactly-once.
//! * **Weak**: nothing exchange-related is logged. Re-ingesting the
//!   border records (triggers on) re-runs the upstream stages, which
//!   re-ship the exchange batches; a batch only fires downstream when
//!   *every* source partition's sub-batch re-arrives, so batches whose
//!   border records were lost on some partition (a torn log tail)
//!   simply never re-fire downstream instead of half-applying.

use std::collections::HashMap;
use std::sync::mpsc::channel;

use sstore_common::{Error, Result};

use crate::app::App;
use crate::checkpoint::{
    list_images, read_checkpoint_on, read_manifest_on, CheckpointFile, CheckpointKind,
};
use crate::config::{EngineConfig, RecoveryMode};
use crate::engine::{Bootstrap, Engine};
use crate::log::{CommandLog, LogKind, LogRecord};
use crate::metrics::EngineMetrics;
use crate::partition::{partition_down, Invocation, TxnRequest, ADHOC_PROC};

/// Outcome statistics of a recovery run (for tests and Figure 9b).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Log records replayed through the client path.
    pub records_replayed: usize,
    /// Interior transactions re-derived via PE triggers (weak mode and
    /// dangling-batch firing).
    pub triggers_fired: usize,
    /// Wall-clock milliseconds restoring checkpoint chains took (the
    /// slowest partition; they restore concurrently).
    pub restore_ms: u64,
    /// Wall-clock milliseconds replaying the log suffix took (the
    /// slowest partition).
    pub replay_ms: u64,
    /// Table frames decoded, over all partitions: per table, its last
    /// whole image in the chain and every rows frame after it.
    pub table_images_decoded: u64,
    /// Table frames a later whole image of their table superseded,
    /// stepped over without decoding.
    pub table_images_skipped: u64,
}

/// Recovers an engine from the checkpoint + command log in
/// `config.data_dir`, per `config.recovery`.
pub fn recover(config: EngineConfig, app: App) -> Result<(Engine, RecoveryReport)> {
    let mut images: Vec<Option<Vec<Vec<u8>>>> = Vec::with_capacity(config.partitions);
    let mut resume_lsn = Vec::with_capacity(config.partitions);
    let mut replayable: Vec<Vec<LogRecord>> = Vec::with_capacity(config.partitions);
    let mut batch_counters: HashMap<String, u64> = HashMap::new();
    let mut max_batch_seen: u64 = 0;
    let mut exchange_floors: Vec<HashMap<String, u64>> = Vec::with_capacity(config.partitions);
    let vfs = config.vfs.as_ref();

    // The durability manifest names the live checkpoint chain. Epochs
    // it does not name — litter from a round that crashed between
    // writing images and adopting them — are ignored entirely; a
    // missing manifest means no checkpoint was ever adopted, so the
    // full log replays from empty state.
    let named = read_manifest_on(vfs, &config.manifest_path())?.map(|m| m.epochs).unwrap_or_default();
    // Validate the chain epoch by epoch, across ALL partitions. The
    // usable chain is the longest prefix where *every* partition
    // produces a well-formed image with the right stamp (base first,
    // deltas after): a torn or missing delta falls the whole engine
    // back to the previous complete prefix. The prefix rule is global
    // so every partition restarts from the same cut, which weak
    // recovery of cross-partition workflows requires — a batch inside
    // one partition's cut and outside another's would re-ship only
    // some of its sub-batches and never complete its merge.
    let mut chains: Vec<Vec<Vec<u8>>> = (0..config.partitions).map(|_| Vec::new()).collect();
    let mut tail: Vec<Option<CheckpointFile>> = (0..config.partitions).map(|_| None).collect();
    let mut chain: Vec<u64> = Vec::new();
    'epochs: for (i, &epoch) in named.iter().enumerate() {
        let want = if i == 0 { CheckpointKind::Base } else { CheckpointKind::Delta };
        let mut round = Vec::with_capacity(config.partitions);
        for p in 0..config.partitions {
            match read_checkpoint_on(vfs, &config.checkpoint_path(p, epoch)) {
                Ok(Some(ck)) if ck.epoch == epoch && ck.kind == want => round.push(ck),
                // Missing, corrupt, or mislabeled: the chain ends
                // *before* this epoch, for every partition.
                _ => break 'epochs,
            }
        }
        for (p, mut ck) in round.into_iter().enumerate() {
            chains[p].push(std::mem::take(&mut ck.ee_image));
            tail[p] = Some(ck);
        }
        chain.push(epoch);
    }
    // A torn chain (the manifest names epochs that cannot all be read
    // back) is recoverable only if the log can rebuild everything past
    // the surviving prefix. With logging disabled nothing can: refuse
    // loudly instead of silently restarting from the older cut.
    if chain.len() < named.len() && !config.logging.enabled {
        return Err(Error::InvalidState(format!(
            "checkpoint chain is torn (manifest names epochs {named:?} but only \
             {chain:?} read back complete) and logging is disabled: the state past \
             the surviving prefix cannot be rebuilt"
        )));
    }

    for p in 0..config.partitions {
        let ck = &tail[p];
        let watermark = ck.as_ref().map(|c| c.last_lsn);
        if let Some(c) = ck {
            for (s, v) in &c.batch_counters {
                let e = batch_counters.entry(s.clone()).or_insert(0);
                *e = (*e).max(*v);
            }
        }
        exchange_floors.push(ck.as_ref().map(|c| c.exchange_floor.clone()).unwrap_or_default());
        // Trimming read: a torn tail is cut off the file here, so the
        // resumed log appends after the last clean record instead of
        // after crash garbage (which would read as interior corruption
        // on the *next* recovery).
        let records = CommandLog::read_all_trimming(vfs, &config.log_path(p))?;
        // GC'd history must be covered by the cut we restore: if the
        // oldest surviving record sits above the cut's watermark,
        // segments between them were truncated against a checkpoint
        // this recovery could not read back — refuse loudly instead of
        // silently replaying over a hole.
        if let Some(first) = records.first() {
            let covered = watermark.map_or(0, |w| w.raw());
            if first.lsn.raw() > covered + 1 {
                return Err(Error::InvalidState(format!(
                    "partition {p}: log starts at lsn {} but the restorable checkpoint \
                     chain only covers through lsn {covered} — log segments were GC'd \
                     against a newer checkpoint that can no longer be read",
                    first.lsn
                )));
            }
        }
        let keep: Vec<LogRecord> = match watermark {
            // A fresh checkpoint may have watermark 0 with no records;
            // replay strictly-after semantics still hold because LSNs
            // covered by the image are <= watermark.
            Some(w) => records.into_iter().filter(|r| r.lsn > w).collect(),
            None => records,
        };
        for r in &keep {
            if let LogKind::Border { stream, batch, .. } = &r.kind {
                let e = batch_counters.entry(stream.to_string()).or_insert(0);
                *e = (*e).max(batch.raw());
            }
            // Interior/exchange records carry batch ids drawn from some
            // border stream's counter too. A torn tail can lose a
            // border record while its *derived* records survive (e.g.
            // the delivery a peer logged); restoring counters from
            // borders alone would then re-issue that id, and the
            // receivers' exchange watermarks would silently drop the
            // new batch as a replay duplicate. Track the global max so
            // every counter can be floored past anything ever issued —
            // id gaps are harmless, id reuse is data loss.
            if let LogKind::Interior { batch, .. } | LogKind::Exchange { batch, .. } =
                &r.kind
            {
                max_batch_seen = max_batch_seen.max(batch.raw());
            }
        }
        let last = keep.last().map(|r| r.lsn).or(watermark);
        images.push(if chain.is_empty() { None } else { Some(std::mem::take(&mut chains[p])) });
        resume_lsn.push(last);
        replayable.push(keep);
    }

    // Floor every ingestable stream's counter at the highest batch id
    // any surviving record carries (see the loop above): a fresh batch
    // must never reuse an id that has durable derived traces.
    if max_batch_seen > 0 {
        for s in app.streams.iter().filter(|s| !s.exchange) {
            let e = batch_counters.entry(s.name.clone()).or_insert(0);
            *e = (*e).max(max_batch_seen);
        }
    }

    // New epochs must not collide with any image file still on disk —
    // including unadopted litter the next checkpoint round will GC —
    // so the counter resumes past everything visible, not just the
    // adopted chain.
    let on_disk = list_images(vfs, &config.data_dir)?.into_iter().map(|(epoch, _)| epoch);
    let checkpoint_epoch = named.iter().copied().chain(on_disk).max().unwrap_or(0);

    let triggers_on_start = matches!(config.recovery, RecoveryMode::Weak);
    let engine = Engine::start_with(
        config.clone(),
        app,
        Some(Bootstrap {
            images,
            resume_lsn,
            triggers_enabled: triggers_on_start,
            batch_counters,
            exchange_floors,
            checkpoint_epoch,
            manifest_chain: chain,
        }),
    )?;

    let m = engine.metrics();
    let mut report = RecoveryReport {
        restore_ms: EngineMetrics::get(&m.recovery_restore_ms),
        table_images_decoded: EngineMetrics::get(&m.restore_images_decoded),
        table_images_skipped: EngineMetrics::get(&m.restore_images_skipped),
        ..RecoveryReport::default()
    };
    match config.recovery {
        RecoveryMode::Strong => {
            // Replay everything, triggers off, one confirmed round trip
            // per record.
            report.records_replayed += replay_all(&engine, &replayable)?;
            engine.set_triggers(true)?;
            report.triggers_fired += engine.fire_dangling()?;
            engine.drain()?;
        }
        RecoveryMode::Weak => {
            // Fire triggers for snapshot-restored batches first (§3.2.5:
            // interior transactions run post-snapshot but unlogged must
            // re-execute), then re-ingest border records.
            report.triggers_fired += engine.fire_dangling()?;
            engine.drain()?;
            report.records_replayed += replay_all(&engine, &replayable)?;
            engine.drain()?;
        }
    }
    report.replay_ms = EngineMetrics::get(&m.recovery_replay_ms);
    Ok((engine, report))
}

/// Replays every partition's surviving records in parallel: one thread
/// per partition, each driving its own chain in LSN order (per-record
/// confirmation keeps the per-partition ordering; cross-partition
/// ordering is not required — exchange re-delivery is reconciled by
/// watermarks afterwards). Recovery wall time is therefore the *max*
/// over partitions, not the sum; the max per-partition replay time
/// lands in the `recovery_replay_ms` gauge.
fn replay_all(engine: &Engine, replayable: &[Vec<LogRecord>]) -> Result<usize> {
    let results: Vec<Result<(usize, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = replayable
            .iter()
            .enumerate()
            .map(|(p, records)| {
                s.spawn(move || {
                    let start = std::time::Instant::now();
                    for rec in records {
                        replay_record(engine, p, rec)?;
                    }
                    Ok((records.len(), start.elapsed().as_millis() as u64))
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(p, h)| {
                h.join().unwrap_or_else(|_| {
                    Err(Error::InvalidState(format!("replay of partition {p} panicked")))
                })
            })
            .collect()
    });
    let mut total = 0;
    let mut max_ms = 0u64;
    for r in results {
        let (n, ms) = r?;
        total += n;
        max_ms = max_ms.max(ms);
    }
    engine
        .metrics()
        .recovery_replay_ms
        .store(max_ms, std::sync::atomic::Ordering::Relaxed);
    Ok(total)
}

/// Replays one record through the client path, waiting for its commit
/// confirmation (this synchronous round trip is the measured cost of
/// strong recovery in Figure 9b).
fn replay_record(engine: &Engine, partition: usize, rec: &LogRecord) -> Result<()> {
    let (tx, rx) = channel();
    // The log stores names (robust across id reassignments); resolve
    // them against the freshly installed app here at the replay edge.
    let (invocation, batch) = match &rec.kind {
        LogKind::Oltp { params } => (Invocation::Oltp { params: params.to_vec() }, None),
        LogKind::Border { stream, batch, rows } => (
            Invocation::Border { stream: engine.resolve_stream(stream)?, rows: rows.to_vec() },
            Some(*batch),
        ),
        LogKind::Interior { stream, batch } => {
            (Invocation::Interior { stream: engine.resolve_stream(stream)? }, Some(*batch))
        }
        // Exchange deliveries replay from their logged rows, entirely
        // on this partition — the senders' replays do not re-ship
        // (triggers are off during strong replay); the dangling batches
        // they leave behind are re-shipped afterwards and arrive at
        // partitions whose watermark already covers them.
        LogKind::Exchange { stream, batch, rows } => (
            Invocation::Exchange { stream: engine.resolve_stream(stream)?, rows: rows.to_vec() },
            Some(*batch),
        ),
        // Ad-hoc SQL replays from its text: re-planned against the
        // recovered catalog, exactly like the original edge planning.
        LogKind::AdHoc { sql, params } => (
            Invocation::AdHoc {
                sql: sql.to_string(),
                stmt: engine.prepare(sql)?,
                params: params.to_vec(),
            },
            None,
        ),
    };
    let proc = match &rec.kind {
        LogKind::AdHoc { .. } => ADHOC_PROC,
        _ => engine
            .ids()
            .proc_id(&rec.proc)
            .ok_or_else(|| Error::not_found("procedure", &rec.proc))?,
    };
    engine.submit(
        partition,
        TxnRequest::internal(proc, invocation, batch).with_reply(tx).replayed(),
    )?;
    // An individual replayed transaction may legitimately abort if it
    // aborted pre-crash too (only committed work is logged, so any
    // replay abort indicates non-determinism — surface it).
    rx.recv()
        .map_err(|_| partition_down(partition))?
        .map(|_| ())
        .map_err(|e| Error::InvalidState(format!("replay of lsn {} failed: {e}", rec.lsn)))
}
