//! Crash-injection tests: doctor the command logs the way a real crash
//! does — truncate mid-record, or leave garbage bytes in the tail
//! record where a flush died — and check that both weak and strong
//! recovery tolerate the torn tail and converge to the pre-crash
//! *committed* state (surviving records only), with no double-applies,
//! on a 2-partition engine whose workflow crosses partitions.

use std::sync::atomic::{AtomicUsize, Ordering};

use sstore::common::tuple;
use sstore::engine::faults::{CrashPoint, FaultInjector};
use sstore::engine::log::{CommandLog, LogKind};
use sstore::engine::metrics::EngineMetrics;
use sstore::engine::recovery::recover;
use sstore::engine::{Engine, EngineConfig, LoggingConfig, RecoveryMode};
use sstore::workloads::micro::{exchange_pipeline, exchange_rekey};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn cfg(mode: RecoveryMode) -> EngineConfig {
    EngineConfig::default()
        .with_partitions(2)
        .with_data_dir(std::env::temp_dir().join(format!(
            "sstore-crash-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        )))
        .with_recovery(mode)
        .with_logging(LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() })
}

/// Mixed-key batches: batch `b` carries `(k, v)` rows for keys 0..4.
fn batches(n: usize) -> Vec<Vec<sstore::common::Tuple>> {
    (0..n as i64)
        .map(|b| (0..4i64).map(|k| tuple![k, b * 4 + k]).collect())
        .collect()
}

fn run_workload(config: &EngineConfig, n: usize) -> Vec<(i64, i64)> {
    let engine = Engine::start(config.clone(), exchange_pipeline()).unwrap();
    for b in batches(n) {
        engine.ingest("xin", b).unwrap();
    }
    engine.drain().unwrap();
    engine.flush_logs().unwrap();
    let state = observe(&engine);
    engine.shutdown();
    state
}

fn observe(engine: &Engine) -> Vec<(i64, i64)> {
    let mut all = Vec::new();
    for p in 0..engine.partitions() {
        let got = engine.query(p, "SELECT k, v FROM xout", vec![]).unwrap();
        all.extend(got.rows.iter().map(|r| {
            (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap())
        }));
    }
    all.sort();
    all
}

/// Byte range `[payload_start, end)` of the final framed record
/// (24-byte segment header, then records framed u32 length + u32 crc).
fn last_record_span(bytes: &[u8]) -> (usize, usize) {
    let mut off = 24usize;
    let mut span = (0, 0);
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        span = (off + 8, off + 8 + len);
        off += 8 + len;
    }
    assert!(span.1 <= bytes.len(), "log ended cleanly before doctoring");
    span
}

/// How a crash mangled the log tail.
#[derive(Clone, Copy, Debug)]
enum Tear {
    /// The final record's bytes were cut short mid-write.
    Truncate,
    /// The final record's frame landed but its payload is garbage.
    FlipBytes,
}

fn tear_tail(path: &std::path::Path, tear: Tear) {
    let mut bytes = std::fs::read(path).unwrap();
    let (start, end) = last_record_span(&bytes);
    match tear {
        Tear::Truncate => bytes.truncate(start + (end - start) / 2),
        Tear::FlipBytes => {
            for b in &mut bytes[start..end] {
                *b = 0xFF;
            }
        }
    }
    std::fs::write(path, &bytes).unwrap();
}

/// Weak mode logs exactly one border record per (partition, batch), so
/// tearing partition 0's tail record loses its sub-batch of the last
/// batch. Recovery must tolerate the tear and converge to the state of
/// a crash-free run over the surviving batches: the final batch never
/// re-fires downstream (its partition-0 sub-batch is gone, so the
/// exchange merge for it never completes — no half-applied batch).
#[test]
fn weak_recovery_tolerates_torn_tail_and_converges() {
    for tear in [Tear::Truncate, Tear::FlipBytes] {
        let config = cfg(RecoveryMode::Weak);
        let n = 6;
        run_workload(&config, n);
        tear_tail(&config.log_path(0), tear);
        // Sanity: partition 0 now has one border fewer than partition 1.
        let p0 = CommandLog::read_all(config.log_path(0)).unwrap();
        let p1 = CommandLog::read_all(config.log_path(1)).unwrap();
        assert_eq!(p0.len() + 1, p1.len(), "{tear:?}");

        let (recovered, _) = recover(config, exchange_pipeline()).unwrap();
        // Crash-free oracle over the surviving n-1 batches.
        let oracle = run_workload(&cfg(RecoveryMode::Weak), n - 1);
        assert_eq!(observe(&recovered), oracle, "{tear:?}");
        recovered.shutdown();
    }
}

/// Strong mode interleaves Border and Exchange records; after a
/// quiescent run the tail record on each partition is the Exchange
/// delivery of the last batch. Tearing it does NOT lose state: the
/// upstream Border records replay (leaving the exchange batch dangling
/// locally), and the post-replay dangling re-ship re-derives exactly
/// the torn delivery, while the exchange watermark drops the re-ships
/// of every batch that did replay — converging to the full pre-crash
/// state with no double-applies.
#[test]
fn strong_recovery_rederives_torn_exchange_tail() {
    for tear in [Tear::Truncate, Tear::FlipBytes] {
        let config = cfg(RecoveryMode::Strong);
        let n = 6;
        let before = run_workload(&config, n);
        assert_eq!(before.len(), 4 * n, "each input row lands exactly once");
        // The tail record on partition 0 must be the exchange delivery
        // of some batch (sp2 commits after all borders of that batch).
        let p0 = CommandLog::read_all(config.log_path(0)).unwrap();
        assert!(
            matches!(p0.last().unwrap().kind, LogKind::Exchange { .. }),
            "test setup: strong log tail is an exchange delivery"
        );
        tear_tail(&config.log_path(0), tear);

        let (recovered, _) = recover(config, exchange_pipeline()).unwrap();
        assert_eq!(observe(&recovered), before, "{tear:?}: torn delivery re-derived");
        recovered.shutdown();
    }
}

/// A checkpoint image the manifest names but recovery cannot read back
/// tears the chain. The global prefix rule discards the torn epoch for
/// *every* partition (all restart from the same older cut — here the
/// empty one, since the chain has a single epoch), and the command log
/// rebuilds the difference in both modes. Only when there is no log to
/// rebuild from does recovery refuse loudly.
#[test]
fn torn_checkpoint_set_recovers_in_both_modes() {
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let config = cfg(mode);
        let engine = Engine::start(config.clone(), exchange_pipeline()).unwrap();
        for b in batches(4) {
            engine.ingest("xin", b).unwrap();
        }
        engine.drain().unwrap();
        engine.checkpoint().unwrap();
        engine.flush_logs().unwrap();
        let before = observe(&engine);
        engine.shutdown();
        // Simulate the torn chain: partition 1's image of epoch 1 is
        // gone although the manifest names the epoch.
        std::fs::remove_file(config.checkpoint_path(1, 1)).unwrap();

        let (recovered, _) = recover(config, exchange_pipeline()).unwrap();
        assert_eq!(
            observe(&recovered),
            before,
            "{mode:?}: torn checkpoint set converges (strong: per-partition logs; \
             weak: full-log fallback)"
        );
        recovered.shutdown();
    }
}

/// Chaos-harness regression: recovery must TRIM a torn log tail before
/// resuming the log for appends. Without the trim, post-recovery
/// records land after the torn bytes, and the *next* recovery reads
/// interior corruption — losing everything after the original tear.
#[test]
fn recovery_trims_torn_tail_before_resuming_appends() {
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let config = cfg(mode);
        run_workload(&config, 4);
        tear_tail(&config.log_path(0), Tear::Truncate);

        let (recovered, _) = recover(config.clone(), exchange_pipeline()).unwrap();
        // New work after recovery appends to the same log files.
        for b in batches(2) {
            recovered.ingest("xin", b).unwrap();
        }
        recovered.drain().unwrap();
        recovered.close().unwrap();
        // Both logs must still read clean end to end — the torn tail
        // was cut, so the new records follow the last clean one.
        for p in 0..2 {
            CommandLog::read_all(config.log_path(p)).unwrap_or_else(|e| {
                panic!("{mode:?}: log {p} corrupted by post-recovery appends: {e}")
            });
        }
        // And a second recovery still converges.
        let (again, _) = recover(config, exchange_pipeline()).unwrap();
        again.drain().unwrap();
        again.shutdown();
    }
}

/// Chaos-harness regression: a checkpoint taken before the FIRST log
/// record must not swallow the first post-checkpoint transaction.
/// (LSNs are 1-based since log v3; a fresh checkpoint's watermark of 0
/// covers nothing, so `lsn > 0` keeps every record.)
#[test]
fn checkpoint_before_first_record_keeps_first_transaction() {
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let config = cfg(mode);
        let engine = Engine::start(config.clone(), exchange_pipeline()).unwrap();
        engine.checkpoint().unwrap(); // before any log record exists
        for b in batches(2) {
            engine.ingest("xin", b).unwrap();
        }
        engine.drain().unwrap();
        engine.flush_logs().unwrap();
        let before = observe(&engine);
        assert_eq!(before.len(), 8);
        engine.shutdown();

        let (recovered, _) = recover(config, exchange_pipeline()).unwrap();
        assert_eq!(
            observe(&recovered),
            before,
            "{mode:?}: the first post-checkpoint record must replay"
        );
        recovered.shutdown();
    }
}

/// Without a command log, a torn checkpoint set leaves weak recovery
/// with no consistent cut at all — it must refuse loudly instead of
/// silently losing the batches caught between the cuts.
#[test]
fn torn_checkpoint_set_without_log_fails_weak() {
    let mut config = cfg(RecoveryMode::Weak);
    config.logging.enabled = false;
    let engine = Engine::start(config.clone(), exchange_pipeline()).unwrap();
    for b in batches(4) {
        engine.ingest("xin", b).unwrap();
    }
    engine.drain().unwrap();
    engine.checkpoint().unwrap();
    engine.shutdown();
    std::fs::remove_file(config.checkpoint_path(1, 1)).unwrap();
    match recover(config, exchange_pipeline()) {
        Ok(_) => panic!("weak must refuse a torn checkpoint set with no log"),
        Err(err) => assert!(
            err.to_string().contains("torn"),
            "weak must refuse a torn checkpoint set with no log, got: {err}"
        ),
    }
}

/// A checkpoint mid-run narrows replay to the log suffix; tearing the
/// suffix's tail must still converge without double-applying anything
/// the checkpoint already contains.
#[test]
fn torn_tail_after_checkpoint_does_not_double_apply() {
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let config = cfg(mode);
        let n = 6;
        let engine = Engine::start(config.clone(), exchange_pipeline()).unwrap();
        for (i, b) in batches(n).into_iter().enumerate() {
            engine.ingest("xin", b).unwrap();
            if i == 2 {
                engine.drain().unwrap();
                engine.checkpoint().unwrap();
            }
        }
        engine.drain().unwrap();
        engine.flush_logs().unwrap();
        let before = observe(&engine);
        engine.shutdown();
        assert_eq!(before.len(), 4 * n);

        tear_tail(&config.log_path(0), Tear::FlipBytes);
        let (recovered, _) = recover(config, exchange_pipeline()).unwrap();
        let after = observe(&recovered);
        // Weak mode: partition 0's last border is torn, so the final
        // batch cannot re-fire — the state is the crash-free state of
        // n-1 batches. Strong mode: the torn record is the exchange
        // delivery, which the dangling re-ship re-derives — full state.
        let expected: Vec<(i64, i64)> = match mode {
            RecoveryMode::Strong => before,
            RecoveryMode::Weak => {
                let mut want: Vec<(i64, i64)> =
                    (0..(4 * (n as i64 - 1))).map(exchange_rekey).collect();
                want.sort();
                want
            }
        };
        assert_eq!(after, expected, "mode={mode:?}");
        // No duplicates anywhere.
        let mut dedup = after.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), after.len(), "mode={mode:?}: no double-applied rows");
        recovered.shutdown();
    }
}

/// Files in `data_dir` whose name matches `pred`.
fn count_files(dir: &std::path::Path, pred: impl Fn(&str) -> bool) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| pred(&e.file_name().to_string_lossy()))
        .count()
}

fn segment_count(dir: &std::path::Path) -> usize {
    count_files(dir, |n| n.contains(".cmdlog"))
}

fn snapshot_count(dir: &std::path::Path) -> usize {
    count_files(dir, |n| n.contains(".snapshot."))
}

/// The crash window GC is built around: the manifest adopts the new
/// checkpoint chain, then the machine dies before any segment or stale
/// image is unlinked. On restart the adopted chain governs, the
/// now-covered log records replay as no-ops (watermark-filtered), and
/// the *next* checkpoint finishes the interrupted GC.
#[test]
fn crash_between_manifest_adoption_and_unlink_converges() {
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let inj = FaultInjector::disabled();
        let config = cfg(mode).with_segment_bytes(256).with_faults(inj.clone());
        let engine = Engine::start(config.clone(), exchange_pipeline()).unwrap();
        for b in batches(8) {
            engine.ingest("xin", b).unwrap();
        }
        engine.drain().unwrap();
        engine.flush_logs().unwrap();
        let before = observe(&engine);
        let segs_before = segment_count(&config.data_dir);
        assert!(segs_before > 2, "setup: small segments must have sealed ({segs_before})");

        inj.arm(CrashPoint::PostManifestPreUnlink, None, 1);
        engine.checkpoint().unwrap_err();
        engine.shutdown();
        inj.disarm();
        // The manifest was adopted, but nothing was unlinked.
        assert_eq!(segment_count(&config.data_dir), segs_before, "{mode:?}");

        let (recovered, _) = recover(config.clone(), exchange_pipeline()).unwrap();
        assert_eq!(observe(&recovered), before, "{mode:?}: adopted-but-unswept state");
        // The next checkpoint round completes the interrupted GC.
        recovered.drain().unwrap();
        recovered.checkpoint().unwrap();
        assert!(
            segment_count(&config.data_dir) < segs_before,
            "{mode:?}: follow-up checkpoint must sweep the covered segments"
        );
        recovered.shutdown();
    }
}

/// A torn *delta* image (the manifest names epochs [base, delta] but
/// one partition's delta never landed) must fall back to the longest
/// complete chain prefix — the base alone — on EVERY partition, and
/// rebuild the difference from the log.
#[test]
fn torn_delta_image_falls_back_to_base_checkpoint() {
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let config = cfg(mode);
        let engine = Engine::start(config.clone(), exchange_pipeline()).unwrap();
        for (i, b) in batches(6).into_iter().enumerate() {
            engine.ingest("xin", b).unwrap();
            if i == 2 || i == 4 {
                engine.drain().unwrap();
                engine.checkpoint().unwrap(); // epoch 1 = base, epoch 2 = delta
            }
        }
        engine.drain().unwrap();
        engine.flush_logs().unwrap();
        let before = observe(&engine);
        engine.shutdown();
        std::fs::remove_file(config.checkpoint_path(1, 2)).unwrap();

        let (recovered, _) = recover(config, exchange_pipeline()).unwrap();
        assert_eq!(
            observe(&recovered),
            before,
            "{mode:?}: torn delta falls back to the base and replays the log difference"
        );
        recovered.shutdown();
    }
}

/// After GC has deleted the oldest sealed segments, recovery must come
/// up from checkpoint + surviving suffix alone — and notice that the
/// segments it no longer has were covered, not lost.
#[test]
fn recovery_converges_after_oldest_segments_gced() {
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let config = cfg(mode).with_segment_bytes(256);
        let engine = Engine::start(config.clone(), exchange_pipeline()).unwrap();
        for b in batches(8) {
            engine.ingest("xin", b).unwrap();
        }
        engine.drain().unwrap();
        engine.checkpoint().unwrap();
        let deleted = EngineMetrics::get(&engine.metrics().gc_segments_deleted);
        assert!(deleted > 0, "{mode:?}: setup — GC must have deleted sealed segments");
        // Post-GC work lands in the surviving suffix.
        for b in batches(3) {
            engine.ingest("xin", b).unwrap();
        }
        engine.drain().unwrap();
        engine.flush_logs().unwrap();
        let before = observe(&engine);
        engine.shutdown();

        let (recovered, _) = recover(config, exchange_pipeline()).unwrap();
        assert_eq!(observe(&recovered), before, "{mode:?}: post-GC recovery converges");
        recovered.shutdown();
    }
}

/// Checkpoint-image litter pin: across many rounds, the number of
/// on-disk snapshot images stays bounded by the live chain (at most
/// `delta_chain_max` epochs × partitions), segments stay bounded by
/// the covered floor, and old epochs' files are actually gone.
#[test]
fn repeated_checkpoints_keep_disk_bounded() {
    let config = cfg(RecoveryMode::Strong).with_segment_bytes(256).with_delta_chain_max(2);
    let engine = Engine::start(config.clone(), exchange_pipeline()).unwrap();
    let image_cap = 2 * config.delta_chain_max; // partitions × chain cap
    for round in 0..10 {
        for b in batches(3) {
            engine.ingest("xin", b).unwrap();
        }
        engine.drain().unwrap();
        engine.checkpoint().unwrap();
        let images = snapshot_count(&config.data_dir);
        assert!(
            images <= image_cap,
            "round {round}: {images} snapshot images on disk exceeds the chain cap \
             {image_cap} — checkpoint GC is littering"
        );
        let segs = segment_count(&config.data_dir);
        assert!(
            segs <= 2 * 2, // partitions × (active + one covered-but-kept)
            "round {round}: {segs} log segments on disk — segment GC is littering"
        );
    }
    engine.shutdown();
}

// ---- checkpoint chains: the newest image of each table wins ------------

/// `feed(k, ts, v)` → `apply` writes table `a` (a unique hash and a
/// B-tree index) every batch and stages each row into a tuple window
/// and a time window; `b` and `c` are written only by OLTP calls, so a
/// test decides which deltas carry them.
fn chain_app() -> sstore::engine::App {
    use sstore::common::{DataType, Schema};
    use sstore::storage::{IndexDef, IndexKind};
    let feed = Schema::of(&[("k", DataType::Int), ("ts", DataType::Int), ("v", DataType::Int)]);
    let one = Schema::of(&[("v", DataType::Int)]);
    // An OLTP procedure that appends its parameter to `table`.
    fn touch(b: sstore::engine::AppBuilder, table: &str) -> sstore::engine::AppBuilder {
        let sql = format!("INSERT INTO {table} (v) VALUES (?)");
        b.proc(&format!("touch_{table}"), &[("ins", &sql)], &[], |ctx| {
            let v = ctx.params()[0].clone();
            ctx.sql("ins", &[v]).map(|_| ())
        })
    }
    let b = sstore::engine::App::builder()
        .stream_partitioned_timed("feed", feed.clone(), "k", "ts")
        .table_indexed(
            "a",
            feed,
            vec![
                IndexDef { name: "a_pk".into(), key_columns: vec![0, 1], kind: IndexKind::Hash, unique: true },
                IndexDef { name: "a_by_v".into(), key_columns: vec![2], kind: IndexKind::BTree, unique: false },
            ],
        )
        .table("b", one.clone())
        .table("c", one.clone())
        .window("recent", "apply", one, 4, 2)
        .time_window(
            "pane",
            "apply",
            Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)]),
            "ts",
            30,
            30,
            10,
        )
        .proc(
            "apply",
            &[
                ("ins_a", "INSERT INTO a (k, ts, v) VALUES (?, ?, ?)"),
                ("ins_recent", "INSERT INTO recent (v) VALUES (?)"),
                ("ins_pane", "INSERT INTO pane (ts, v) VALUES (?, ?)"),
            ],
            &[],
            |ctx| {
                for r in ctx.input().to_vec() {
                    let (k, ts, v) = (r.get(0).clone(), r.get(1).clone(), r.get(2).clone());
                    ctx.sql("ins_a", &[k, ts.clone(), v.clone()])?;
                    ctx.sql("ins_recent", std::slice::from_ref(&v))?;
                    ctx.sql("ins_pane", &[ts, v])?;
                }
                Ok(())
            },
        )
        .pe_trigger("feed", "apply");
    touch(touch(b, "b"), "c").build().unwrap()
}

/// One round of input: keys 0..8 (both partitions), event times
/// `20·round + k` — so extents of the 30 ms time window close every
/// other round and something is always staged.
fn feed_round(engine: &Engine, round: i64) {
    let rows = (0..8i64).map(|k| tuple![k, 20 * round + k, 100 * round + k]).collect();
    engine.ingest("feed", rows).unwrap();
    engine.drain().unwrap();
}

fn touch(engine: &Engine, table: &str, v: i64) {
    for p in 0..engine.partitions() {
        engine.call_at(p, &format!("touch_{table}"), vec![v.into()]).unwrap();
    }
}

/// The whole state of every partition, as bytes: checkpoints until a
/// round writes base images (the chain restarts at one epoch) and
/// returns their EE images — every table's rows under their row ids,
/// index definitions, row-id counters, stream bookkeeping and high
/// marks, window contents and staging. Checkpointing changes none of
/// that, so two engines in equal states yield equal bytes.
fn full_state(engine: &Engine) -> Vec<Vec<u8>> {
    use sstore::engine::checkpoint::{read_checkpoint, read_manifest_on};
    let config = engine.config();
    loop {
        engine.checkpoint().unwrap();
        let chain = read_manifest_on(config.vfs.as_ref(), &config.manifest_path())
            .unwrap()
            .unwrap()
            .epochs;
        if let [base] = chain[..] {
            return (0..engine.partitions())
                .map(|p| read_checkpoint(&config.checkpoint_path(p, base)).unwrap().unwrap().ee_image)
                .collect();
        }
    }
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for e in std::fs::read_dir(from).unwrap().flatten() {
        std::fs::copy(e.path(), to.join(e.file_name())).unwrap();
    }
}

/// Runs the chain workload — `c` written before the base only, `b`
/// before the base and again in delta 2, `a`, the stream and both
/// windows every round — through a base and four deltas plus an
/// uncheckpointed tail, and "crashes" by copying the data directory.
/// Returns the config of the copy and the pre-crash state.
fn crash_after_base_and_four_deltas(mode: RecoveryMode) -> (EngineConfig, Vec<Vec<u8>>) {
    let config = cfg(mode).with_delta_chain_max(5);
    let engine = Engine::start(config.clone(), chain_app()).unwrap();
    touch(&engine, "b", 1);
    touch(&engine, "c", 1);
    for round in 0..5 {
        feed_round(&engine, round);
        if round == 2 {
            touch(&engine, "b", 2);
        }
        engine.checkpoint().unwrap(); // epoch 1 = base, 2..=5 = deltas 1..=4
    }
    feed_round(&engine, 5); // the log suffix recovery replays
    engine.flush_logs().unwrap();
    let crashed = config.clone().with_data_dir(config.data_dir.with_extension("crashed"));
    copy_dir(&config.data_dir, &crashed.data_dir);
    let before = full_state(&engine);
    engine.shutdown();
    (crashed, before)
}

/// Per partition the chain holds six tables; each delta carries `a`,
/// `feed`, `recent` and `pane` (written every round), and delta 2
/// carries `b` as well. Every delta frame holds only the rows changed
/// since the last image, but for delta 3's `pane`: its slides deleted
/// more rows than it holds, so it is written whole.
const CHAIN_TABLES: u64 = 6;
const EVERY_ROUND_TABLES: u64 = 4;

#[test]
fn chain_restore_decodes_each_table_once_and_recovers_the_pre_crash_state() {
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let (crashed, before) = crash_after_base_and_four_deltas(mode);
        let (recovered, report) = recover(crashed, chain_app()).unwrap();
        // Every frame of a table from its last whole image on is
        // decoded, and the table rebuilt from them once: a, the stream
        // and `recent` five frames each, b two, c one; `pane` two, the
        // three before its whole image in delta 3 skipped.
        let frames = CHAIN_TABLES + 4 * EVERY_ROUND_TABLES + 1;
        assert_eq!(report.table_images_decoded, 2 * (frames - 3), "{mode:?}");
        assert_eq!(report.table_images_skipped, 2 * 3, "{mode:?}");
        assert!(report.records_replayed > 0, "{mode:?}: the tail replays");
        let m = recovered.metrics();
        assert_eq!(EngineMetrics::get(&m.recovery_restore_ms), report.restore_ms);
        assert_eq!(EngineMetrics::get(&m.recovery_replay_ms), report.replay_ms);

        // Index lookups and window contents, through SQL …
        let mut seen = 0;
        for p in 0..2 {
            let hit = recovered.query(p, "SELECT v FROM a WHERE k = 3 AND ts = 43", vec![]).unwrap();
            seen += hit.rows.len();
            let by_v = recovered.query(p, "SELECT k FROM a WHERE v >= 500", vec![]).unwrap();
            assert!(!by_v.rows.is_empty(), "{mode:?}: replayed tail rows are indexed");
            let recent = recovered.query(p, "SELECT v FROM recent", vec![]).unwrap();
            assert_eq!(recent.rows.len(), 4, "{mode:?}: tuple window holds its size");
            let b = recovered.query(p, "SELECT v FROM b ORDER BY v", vec![]).unwrap();
            assert_eq!(b.rows, vec![tuple![1i64], tuple![2i64]], "{mode:?}");
            let c = recovered.query(p, "SELECT v FROM c", vec![]).unwrap();
            assert_eq!(c.rows, vec![tuple![1i64]], "{mode:?}");
        }
        assert_eq!(seen, 1, "{mode:?}: key (3, 43) lives on exactly one partition");
        // … and everything else (row ids, counters, staging, stream
        // high marks), byte for byte.
        assert_eq!(full_state(&recovered), before, "{mode:?}");
        recovered.shutdown();
    }
}

/// The manifest names base + four deltas, but delta 3's file is gone on
/// one partition of two: resolution runs over the surviving prefix
/// (base, delta 1, delta 2) on *both* partitions, and the log rebuilds
/// the rest.
#[test]
fn torn_chain_resolves_over_the_surviving_prefix() {
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let (crashed, before) = crash_after_base_and_four_deltas(mode);
        std::fs::remove_file(crashed.checkpoint_path(1, 4)).unwrap();
        let (recovered, report) = recover(crashed, chain_app()).unwrap();
        // Base, delta 1 and delta 2 hold rows frames only: all decoded.
        let frames = CHAIN_TABLES + 2 * EVERY_ROUND_TABLES + 1;
        assert_eq!(report.table_images_decoded, 2 * frames, "{mode:?}");
        assert_eq!(report.table_images_skipped, 0, "{mode:?}");
        assert_eq!(full_state(&recovered), before, "{mode:?}: converges by log replay");
        recovered.shutdown();
    }
}

/// The trending window's group index is derived state — in no image, in
/// no log. A voter run checkpointed mid-way and crashed must come back,
/// in both modes, with the index rebuilt from the restored window and
/// followed through the replayed votes: it passes recompute-and-compare
/// (`Engine::query` checks the queried table's indexes before answering),
/// the statement planned to read it gives what a scan of the window
/// gives, and the leaderboard `fill_trend` wrote from it is that.
#[test]
fn voter_trend_index_is_rebuilt_by_recovery() {
    use sstore::workloads::gen::VoteGen;
    use sstore::workloads::voter::{leaderboard_app, seed};

    const TREND: &str = "SELECT contestant, COUNT(*) FROM w_trend \
                         GROUP BY contestant ORDER BY COUNT(*) DESC, contestant LIMIT 3";
    // A WHERE keeps the planner off the index: this one scans.
    const TREND_SCANNED: &str = "SELECT contestant, COUNT(*) FROM w_trend WHERE contestant > 0 \
                                 GROUP BY contestant ORDER BY COUNT(*) DESC, contestant LIMIT 3";
    const BOARD: &str = "SELECT contestant, cnt FROM leaderboard WHERE kind = 'trend' \
                         ORDER BY cnt DESC, contestant";
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let mut config = cfg(mode);
        config.partitions = 1;
        let engine = Engine::start(config.clone(), leaderboard_app(true)).unwrap();
        seed(&engine, 20).unwrap();
        let mut gen = VoteGen::new(3, 20, 50);
        for (i, v) in gen.votes(260).into_iter().enumerate() {
            engine.ingest("votes_in", vec![v.tuple()]).unwrap();
            if i == 150 {
                engine.drain().unwrap();
                engine.checkpoint().unwrap();
            }
        }
        engine.drain().unwrap();
        engine.flush_logs().unwrap();
        let before = engine.query(0, BOARD, vec![]).unwrap().rows;
        assert_eq!(before.len(), 3);
        engine.shutdown();

        let (recovered, _) = recover(config, leaderboard_app(true)).unwrap();
        recovered.drain().unwrap();
        let trend = recovered.query(0, TREND, vec![]).unwrap().rows;
        assert_eq!(trend, recovered.query(0, TREND_SCANNED, vec![]).unwrap().rows, "{mode:?}");
        assert_eq!(recovered.query(0, BOARD, vec![]).unwrap().rows, trend, "{mode:?}");
        assert_eq!(trend, before, "{mode:?}");
        // And it keeps following: more votes, same agreement.
        for v in gen.votes(40) {
            recovered.ingest("votes_in", vec![v.tuple()]).unwrap();
        }
        recovered.drain().unwrap();
        let trend = recovered.query(0, TREND, vec![]).unwrap().rows;
        assert_eq!(trend, recovered.query(0, TREND_SCANNED, vec![]).unwrap().rows, "{mode:?}");
        assert_eq!(recovered.query(0, BOARD, vec![]).unwrap().rows, trend, "{mode:?}");
        recovered.shutdown();
    }
}

// ---- windows: what is active is what the table holds --------------------

/// A sliding event-time window (30 wide, sliding by 10, 30 of lateness)
/// whose on-slide trigger copies the extent it sees — in scan order,
/// tagged with the extent's own newest timestamp — into `seen`.
fn sliding_window_app() -> sstore::engine::App {
    use sstore::common::{DataType, Schema};
    let timed = Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)]);
    sstore::engine::App::builder()
        .stream_timed("arrivals", timed.clone(), "ts")
        .table("seen", timed.clone())
        .time_window("tw", "wproc", timed, "ts", 30, 10, 30)
        .proc("wproc", &[("ins", "INSERT INTO tw (ts, v) VALUES (?, ?)")], &[], |ctx| {
            for r in ctx.input().to_vec() {
                ctx.sql("ins", &[r.get(0).clone(), r.get(1).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("arrivals", "wproc")
        .ee_trigger("tw", &["INSERT INTO seen (ts, v) SELECT ts, v FROM tw"])
        .build()
        .unwrap()
}

/// A time window's expiry reads the timestamps of its table's rows, and
/// a checkpoint holds those rows and nothing beside them. The checkpoint
/// here is taken with the rows in a scan order that is not expiry order
/// — rows activated out of timestamp order across slides, equal
/// timestamps, and a late merge (the newest row id under one of the
/// oldest timestamps). In both recovery modes the recovered engine's
/// next three slides must leave the same rows, in the same scan order,
/// as an un-restarted twin's — each expired exactly the tuples the
/// twin's did — and the extents their triggers copied must match row
/// for row.
#[test]
fn a_restored_time_window_expires_what_its_unrestarted_twin_does() {
    let history: [&[(i64, i64)]; 4] = [
        &[(14, 1), (3, 2), (14, 3), (8, 4)],
        &[(27, 5), (21, 6), (33, 7)], // watermark 33: extents up to [0, 30) fire
        &[(4, 8), (38, 9), (9, 10)],  // 4 and 9 merge late: old timestamps, the newest ids
        &[(35, 11), (41, 12)],        // extent [10, 40) fires: 3, 4, 8 and 9 leave
    ];
    let next_three: [&[(i64, i64)]; 3] = [&[(52, 13)], &[(47, 14), (61, 15)], &[(74, 16)]];
    let feed = |engine: &Engine, rows: &[(i64, i64)]| {
        engine.ingest("arrivals", rows.iter().map(|&(ts, v)| tuple![ts, v]).collect()).unwrap();
        engine.drain().unwrap();
    };
    let observe = |engine: &Engine| {
        ["SELECT ts, v FROM tw", "SELECT ts, v FROM seen"]
            .map(|q| engine.query(0, q, vec![]).unwrap().rows)
    };
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let mut config = cfg(mode);
        config.partitions = 1;
        let engine = Engine::start(config.clone(), sliding_window_app()).unwrap();
        let twin = Engine::start(EngineConfig::default(), sliding_window_app()).unwrap();
        for (i, rows) in history.iter().enumerate() {
            feed(&engine, rows);
            feed(&twin, rows);
            if i == 2 {
                let scan: Vec<i64> =
                    observe(&engine)[0].iter().map(|t| t.get(0).as_int().unwrap()).collect();
                assert_eq!(scan, [3, 8, 14, 14, 21, 27, 4, 9], "{mode:?}: expiry order is not scan order");
                engine.checkpoint().unwrap(); // the last batch is the log's to replay
            }
        }
        // Extent [10, 40) fired last: it expired 3 and 8, and the late
        // merges 4 and 9 from behind rows it keeps.
        let live: Vec<i64> = observe(&twin)[0].iter().map(|t| t.get(0).as_int().unwrap()).collect();
        assert_eq!(live, [14, 14, 21, 27, 33, 35, 38], "{mode:?}: the twin's extent [10, 40)");
        engine.flush_logs().unwrap();
        engine.close().unwrap();

        let (recovered, _) = recover(config, sliding_window_app()).unwrap();
        recovered.drain().unwrap();
        assert_eq!(observe(&recovered), observe(&twin), "{mode:?}: recovered");
        for (i, rows) in next_three.iter().enumerate() {
            let slides = EngineMetrics::get(&recovered.metrics().window_slides);
            feed(&recovered, rows);
            feed(&twin, rows);
            assert!(EngineMetrics::get(&recovered.metrics().window_slides) > slides, "{mode:?}: slide {i}");
            assert_eq!(observe(&recovered), observe(&twin), "{mode:?}: after slide {i}");
        }
        recovered.shutdown();
        twin.shutdown();
    }
}

/// Checkpoint format 7 gave delta frames a shape byte; an image
/// written by an older build is refused at its header, naming both
/// versions, rather than misread.
#[test]
fn an_older_checkpoint_version_is_refused_naming_both() {
    use sstore::engine::checkpoint::read_checkpoint;
    // No log: the image is all recovery has.
    let mut config = cfg(RecoveryMode::Strong);
    config.partitions = 1;
    config.logging.enabled = false;
    let engine = Engine::start(config.clone(), sliding_window_app()).unwrap();
    engine.ingest("arrivals", vec![tuple![5i64, 1i64]]).unwrap();
    engine.drain().unwrap();
    engine.checkpoint().unwrap();
    engine.close().unwrap();
    let path = config.checkpoint_path(0, 1);
    let mut bytes = std::fs::read(&path).unwrap();
    // magic:u32, then version:u32 (little-endian).
    assert_eq!(bytes[4..8], 7u32.to_le_bytes());
    bytes[4..8].copy_from_slice(&6u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = read_checkpoint(&path).unwrap_err().to_string();
    assert!(err.contains("version 6") && err.contains("reads 7"), "{err}");
    assert!(recover(config, sliding_window_app()).is_err(), "a v6 image must not restore");
}
