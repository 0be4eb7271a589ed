//! The chaos application and the seeded scenario generator.
//!
//! One fixed app shape exercises every correctness surface at once —
//! hash-routed ingest, an exchange hop, a local interior stage, a
//! tumbling event-time window with out-of-order input, OLTP calls,
//! ad-hoc SQL, and overload shedding — while staying simple enough for
//! [`crate::oracle`] to model exactly:
//!
//! ```text
//! cin (border, keyed k, timed ts) ─▶ p_in ──▶ xch (exchange, keyed g) ─▶ p_agg ─▶ xout
//!                                    │ ├────▶ loc (local stream)      ─▶ p_loc ─▶ locout
//!                                    │ ├────▶ raw  (per-row INSERT)
//!                                    │ └────▶ tw   (tumbling time window)
//!                                    │           └─ on-slide trigger ─▶ wsum (SUM per pane)
//! p_note (OLTP) ────────────────────────────▶ notes
//! ad-hoc SQL (INSERT/UPDATE) ───────────────▶ notes
//! ```
//!
//! A [`Scenario`] is everything one chaos run needs — config knobs, the
//! op list, and the fault plan — generated deterministically from a
//! seed, and self-contained so the shrinker can mutate it and re-run.

use rand::{Rng, SeedableRng};
use sstore_common::{DataType, Schema, Tuple, Value};
use sstore_engine::faults::CrashPoint;
use sstore_engine::vfs::{IoFault, IoFaultKind, IoOp};
use sstore_engine::App;

/// Number of aggregation groups the exchange re-keys onto (`g = v mod G`).
pub const GROUPS: i64 = 4;
/// Tumbling window extent in event-time units.
pub const TW_SIZE: i64 = 100;
/// Window slide (== size: tumbling).
pub const TW_SLIDE: i64 = 100;
/// Allowed lateness for the window.
pub const TW_LATENESS: i64 = 50;

/// One client operation the harness drives.
#[derive(Debug, Clone)]
pub enum Op {
    /// Ingest a batch of `(k, v, ts)` rows into `cin` (async unless
    /// `sync`). Timestamps may be out of order.
    Ingest {
        /// The batch rows.
        rows: Vec<(i64, i64, i64)>,
        /// Use `ingest_sync` (the ack then proves the border committed).
        sync: bool,
    },
    /// OLTP call `p_note(id, v)` on a partition.
    Note {
        /// Target partition.
        partition: usize,
        /// Unique note id.
        id: i64,
        /// Value.
        v: i64,
    },
    /// Ad-hoc `INSERT INTO notes` on a partition.
    AdHocInsert {
        /// Target partition.
        partition: usize,
        /// Unique note id.
        id: i64,
        /// Value.
        v: i64,
    },
    /// Ad-hoc `UPDATE notes SET v = ? WHERE id = ?` on a partition.
    AdHocUpdate {
        /// Target partition.
        partition: usize,
        /// Note id to update (may or may not exist — both are legal).
        id: i64,
        /// New value (unique per op, so log records are identifiable).
        v: i64,
    },
    /// Drain to quiescence, then take an engine checkpoint.
    Checkpoint,
}

/// One planned crash: kill the engine at the `nth` future hit of
/// `point` (scoped to `partition` when `Some`).
#[derive(Debug, Clone, Copy)]
pub struct PlannedCrash {
    /// Where the simulated kill -9 lands.
    pub point: CrashPoint,
    /// Partition scope (`None` for the engine facade / any partition).
    pub partition: Option<usize>,
    /// 1-based hit count.
    pub nth: u64,
}

/// A complete, self-contained chaos run description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generating seed (drives the SimVfs RNG too).
    pub seed: u64,
    /// Engine partitions.
    pub partitions: usize,
    /// Admission credits per partition.
    pub credits: usize,
    /// Overload policy: `true` = Shed, `false` = Block{10s}.
    pub shed: bool,
    /// Command-log group commit size.
    pub group_commit: usize,
    /// fsync on log flush.
    pub fsync: bool,
    /// Log segment size: tiny values force frequent sealing, so
    /// checkpoint GC has whole segments to collect.
    pub segment_bytes: u64,
    /// Delta-chain length that forces a compacting full checkpoint.
    pub delta_chain_max: usize,
    /// Clean-shutdown flavor: the close-time flush of partition 0's
    /// log fails — the scenario that catches a swallowed
    /// `CommandLog::close` error (the PR-3 log-close bug).
    pub fail_close: bool,
    /// The op list, driven in order by one thread.
    pub ops: Vec<Op>,
    /// Crashes, armed one at a time in order.
    pub crashes: Vec<PlannedCrash>,
    /// I/O faults installed in the SimVfs up front.
    pub io_faults: Vec<IoFault>,
}

impl Scenario {
    /// True when the logging config guarantees a synchronously
    /// acknowledged transaction is durable (group commit of one, with
    /// fsync) — the precondition for the strictest ack check.
    pub fn strict_durability(&self) -> bool {
        self.group_commit == 1 && self.fsync
    }
}

fn kv_ts() -> Schema {
    Schema::of(&[("k", DataType::Int), ("v", DataType::Int), ("ts", DataType::Int)])
}

/// The fixed chaos application (see module docs for the shape).
pub fn chaos_app() -> App {
    let gv = Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]);
    let kv = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let nullable_total =
        Schema::new(vec![sstore_common::Column::nullable("total", DataType::Int)])
            .expect("schema is valid");
    App::builder()
        .stream_partitioned_timed("cin", kv_ts(), "k", "ts")
        .exchange_stream("xch", gv.clone(), "g")
        .stream("loc", kv.clone())
        .table("raw", kv_ts())
        .table("xout", gv)
        .table("locout", kv.clone())
        .table("notes", Schema::of(&[("id", DataType::Int), ("v", DataType::Int)]))
        .table("wsum", nullable_total)
        .time_window(
            "tw",
            "p_in",
            Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)]),
            "ts",
            TW_SIZE,
            TW_SLIDE,
            TW_LATENESS,
        )
        .proc(
            "p_in",
            &[
                ("ins_raw", "INSERT INTO raw (k, v, ts) VALUES (?, ?, ?)"),
                ("ins_tw", "INSERT INTO tw (ts, v) VALUES (?, ?)"),
            ],
            &["xch", "loc"],
            |ctx| {
                let rows = ctx.input().to_vec();
                let mut xch_rows = Vec::with_capacity(rows.len());
                let mut loc_rows = Vec::with_capacity(rows.len());
                let mut tw_rows = Vec::with_capacity(rows.len());
                for r in &rows {
                    let v = r.get(1).as_int()?;
                    tw_rows.push([r.get(2).clone(), Value::Int(v)]);
                    xch_rows.push(Tuple::new(vec![Value::Int(v.rem_euclid(GROUPS)), Value::Int(v)]));
                    loc_rows.push(Tuple::new(vec![r.get(0).clone(), Value::Int(v)]));
                }
                ctx.sql_rows("ins_raw", &rows)?;
                ctx.sql_rows("ins_tw", &tw_rows)?;
                ctx.emit("xch", xch_rows)?;
                ctx.emit("loc", loc_rows)
            },
        )
        .proc("p_agg", &[("ins", "INSERT INTO xout (g, v) VALUES (?, ?)")], &[], |ctx| {
            ctx.sql_rows("ins", &ctx.input().to_vec()).map(drop)
        })
        .proc("p_loc", &[("ins", "INSERT INTO locout (k, v) VALUES (?, ?)")], &[], |ctx| {
            ctx.sql_rows("ins", &ctx.input().to_vec()).map(drop)
        })
        .proc("p_note", &[("ins", "INSERT INTO notes (id, v) VALUES (?, ?)")], &[], |ctx| {
            let (id, v) = (ctx.params()[0].clone(), ctx.params()[1].clone());
            ctx.sql("ins", &[id, v])?;
            Ok(())
        })
        .pe_trigger("cin", "p_in")
        .pe_trigger("xch", "p_agg")
        .pe_trigger("loc", "p_loc")
        .ee_trigger("tw", &["INSERT INTO wsum (total) SELECT SUM(v) FROM tw"])
        .build()
        .expect("chaos app is valid")
}

/// Deterministically generates the scenario for one seed.
pub fn generate(seed: u64) -> Scenario {
    generate_scaled(seed, 1)
}

/// Long-run flavor (`--mode longrun`): several times the op count,
/// checkpoints forced periodically so the log lifecycle — seal, GC,
/// delta chains, compaction — cycles many times per run, and segments
/// kept tiny so every checkpoint has sealed segments to collect.
pub fn generate_longrun(seed: u64) -> Scenario {
    // Seed-derived scale in 3..=5 without disturbing the inner RNG
    // stream (scale feeds generate_scaled before it seeds its rng).
    generate_scaled(seed, 3 + (seed % 3) as usize)
}

fn generate_scaled(seed: u64, scale: usize) -> Scenario {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let partitions = *[1usize, 2, 2, 3].get(rng.gen_range(0usize..4)).unwrap();
    let fail_close = scale == 1 && rng.gen_bool(0.15);
    // Strict durability half the time (enables the strongest ack
    // check); otherwise group commit and page-cache-style loss.
    let (group_commit, fsync) = if fail_close {
        // The close flush must be the log's FIRST VFS append, so
        // nothing may auto-flush before shutdown.
        (100_000, false)
    } else if rng.gen_bool(0.5) {
        (1, true)
    } else {
        (*[2usize, 4, 8].get(rng.gen_range(0usize..3)).unwrap(), rng.gen_bool(0.3))
    };
    let shed = rng.gen_bool(0.3);
    let credits = if shed { rng.gen_range(1usize..4) } else { 256 };
    // Tiny segments on most runs so sealing and GC actually happen; an
    // effectively-unbounded size keeps single-segment coverage alive.
    let segment_bytes = if scale > 1 {
        *[64u64, 256, 1024].get(rng.gen_range(0usize..3)).unwrap()
    } else {
        *[64u64, 256, 4096, u64::MAX].get(rng.gen_range(0usize..4)).unwrap()
    };
    let delta_chain_max = rng.gen_range(1usize..5);

    let n_ops = rng.gen_range(20usize..60) * scale;
    let mut ops = Vec::with_capacity(n_ops);
    let mut clock: i64 = 40;
    let mut next_v: i64 = 0;
    let mut next_id: i64 = 0;
    let mut issued_ids: Vec<i64> = Vec::new();
    for _ in 0..n_ops {
        let roll: f64 = rng.gen();
        if roll < 0.68 {
            let n_rows = rng.gen_range(1usize..6);
            let mut rows = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                let k = rng.gen_range(0i64..8);
                let v = next_v;
                next_v += 1;
                // Out-of-order timestamps: jitter reaches far enough
                // behind the high mark to cross the lateness bound.
                let ts = clock + rng.gen_range(-90i64..40);
                rows.push((k, v, ts));
                clock += rng.gen_range(5i64..45);
            }
            ops.push(Op::Ingest { rows, sync: rng.gen_bool(0.25) });
        } else if roll < 0.78 {
            let id = next_id;
            next_id += 1;
            issued_ids.push(id);
            ops.push(Op::Note { partition: rng.gen_range(0usize..partitions), id, v: next_v });
            next_v += 1;
        } else if roll < 0.86 {
            let id = next_id;
            next_id += 1;
            issued_ids.push(id);
            ops.push(Op::AdHocInsert {
                partition: rng.gen_range(0usize..partitions),
                id,
                v: next_v,
            });
            next_v += 1;
        } else if roll < 0.94 {
            let id = if issued_ids.is_empty() {
                999_999 // updates nothing; still a legal, logged txn
            } else {
                issued_ids[rng.gen_range(0usize..issued_ids.len())]
            };
            ops.push(Op::AdHocUpdate {
                partition: rng.gen_range(0usize..partitions),
                id,
                v: next_v,
            });
            next_v += 1;
        } else if !fail_close {
            ops.push(Op::Checkpoint);
        } else {
            ops.push(Op::Ingest { rows: vec![(0, next_v, clock)], sync: false });
            next_v += 1;
        }
        // Long runs cycle the log lifecycle on a steady cadence on top
        // of the random checkpoints above.
        if scale > 1 && ops.len() % 13 == 12 {
            ops.push(Op::Checkpoint);
        }
    }

    let mut crashes = Vec::new();
    let mut io_faults = Vec::new();
    if fail_close {
        io_faults.push(IoFault {
            file_contains: "partition-0.cmdlog".into(),
            op: IoOp::Append,
            nth: 1,
            kind: IoFaultKind::Fail,
        });
    } else {
        for _ in 0..rng.gen_range(0usize..3) {
            let point = CrashPoint::ALL[rng.gen_range(0usize..CrashPoint::ALL.len())];
            let partition = match point {
                // Facade-side points only ever hit with partition None
                // (PreSegmentUnlink fires both facade-side for image GC
                // and per-partition for segment GC, so it keeps the
                // 50/50 scoping below).
                CrashPoint::MidCheckpointPhase1
                | CrashPoint::MidCheckpointPhase2
                | CrashPoint::MidCompaction
                | CrashPoint::PostManifestPreUnlink => None,
                _ if rng.gen_bool(0.5) => None,
                _ => Some(rng.gen_range(0usize..partitions)),
            };
            crashes.push(PlannedCrash { point, partition, nth: rng.gen_range(1u64..25 * scale as u64) });
        }
        if rng.gen_bool(0.25) {
            io_faults.push(IoFault {
                file_contains: format!("partition-{}.cmdlog", rng.gen_range(0usize..partitions)),
                op: if rng.gen_bool(0.5) { IoOp::Append } else { IoOp::Sync },
                nth: rng.gen_range(1u64..8),
                kind: if rng.gen_bool(0.5) { IoFaultKind::Fail } else { IoFaultKind::Short },
            });
        }
    }

    Scenario {
        seed,
        partitions,
        credits,
        shed,
        group_commit,
        fsync,
        segment_bytes,
        delta_chain_max,
        fail_close,
        ops,
        crashes,
        io_faults,
    }
}
