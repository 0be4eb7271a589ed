//! The per-layer ledger of a traced run.
//!
//! After a workload's phases have been timed and its state verified,
//! the driver replays a sample of that workload's own input through the
//! public functions of each layer in isolation — frame codec, session,
//! admission gate, partition hop, scheduler, EE, windows, command log,
//! checkpoint, recovery, SQL front end and executors, storage, tuple
//! codec — and reads the exact deltas of the public counters over the
//! phases. Everything here is measured from outside: timings of public
//! calls made by the driver, never hooks inside the program (those are
//! a later change). Each probe is a median or a mean over enough
//! repetitions to take a few tens of milliseconds.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use sstore_common::codec::{Decoder, Encoder};
use sstore_common::{BatchId, DataType, Result, Schema, Tuple, Value};
use sstore_engine::admission::AdmissionGate;
use sstore_engine::checkpoint::{read_checkpoint, read_manifest_on};
use sstore_engine::ee::{ExecutionEngine, ProcStmtMap, StmtId};
use sstore_engine::engine::split_by_key;
use sstore_engine::log::CommandLog;
use sstore_engine::metrics::EngineMetrics;
use sstore_engine::names::AppIds;
use sstore_engine::{
    recovery, App, BoundaryMode, Engine, EngineConfig, LoggingConfig, RecoveryMode,
};
use sstore_server::protocol::{read_frame, write_frame, Request, Response};
use sstore_server::{Client, Server};
use sstore_sql::batch::ColumnarBatch;
use sstore_sql::exec::run_select_rows_rowwise;
use sstore_sql::plan::BoundStatement;
use sstore_sql::vexec::run_select_columnar;
use sstore_sql::Planner;
use sstore_storage::index::{Index, IndexDef};
use sstore_storage::{snapshot, Catalog, IndexKind, TableKind};
use sstore_workloads::{linearroad, micro, voter};

use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{
    discard, engine_config, hybrid_scan, voter_input, PhaseFacts, Reported, RunArgs,
};

type StmtMap = HashMap<String, StmtId>;

/// Batches of fresh input a workload hands the ledger: enough for the
/// worst case of checkpoint rounds on the live engine plus the session
/// probe, without feeding it anything twice.
pub const SAMPLE_BATCHES: usize = 280;

/// SQL the `sql.exec` probes run against the workload's keyed table.
pub struct TableOps {
    /// Table whose hash index the point operations go through, and the
    /// column it is keyed on.
    pub keyed_table: &'static str,
    pub key_col: usize,
    /// One `?`: the key.
    pub point_select: &'static str,
    pub update: &'static str,
    pub delete: &'static str,
    /// An insert into any of the workload's tables.
    pub insert: &'static str,
    pub insert_params: fn(i64) -> Vec<Value>,
}

/// A workload's own input and definitions, as the layer probes need
/// them.
pub struct Sample {
    pub app: fn() -> App,
    /// What a fresh engine needs loaded before it can take `batches`.
    pub load: fn(&Engine, usize),
    pub load_rows: usize,
    /// The same, for a standalone EE.
    pub load_ee: fn(&mut ExecutionEngine, &ProcStmtMap) -> Result<()>,
    pub stream: &'static str,
    pub border_proc: &'static str,
    pub partitions: usize,
    pub partition_col: usize,
    /// Fresh input continuing the workload's own, never ingested yet.
    pub batches: Vec<Vec<Tuple>>,
    /// The border procedure's statements for one input tuple.
    pub border: fn(&mut ExecutionEngine, &StmtMap, &Tuple) -> Result<()>,
    pub ops: TableOps,
    /// The four scan shapes on the workload's largest table.
    pub scan_table: &'static str,
    pub scans: [&'static str; 4],
    /// Ad-hoc statements the workload sends, beyond its procedures'.
    pub adhoc: Vec<&'static str>,
    /// Isolated layer costs of one primary operation, µs.
    pub attribute: fn(&Probes, &Sample, &PhaseFacts) -> f64,
}

/// Probe results by metric name.
pub type Probes = BTreeMap<&'static str, f64>;

fn get(p: &Probes, name: &str) -> f64 {
    p.get(name).copied().unwrap_or(f64::NAN)
}

fn wire_us(p: &Probes) -> f64 {
    (get(p, "server.protocol.req_encode_ns")
        + get(p, "server.protocol.req_decode_ns")
        + get(p, "server.protocol.resp_encode_ns")
        + get(p, "server.protocol.resp_decode_ns"))
        / 1e3
        + get(p, "server.session.ping_rtt_us")
}

fn mean_batch_len(s: &Sample) -> f64 {
    s.batches.iter().map(Vec::len).sum::<usize>() as f64 / s.batches.len().max(1) as f64
}

impl Sample {
    fn voter_like(
        batches: Vec<Vec<Tuple>>,
        attribute: fn(&Probes, &Sample, &PhaseFacts) -> f64,
    ) -> Sample {
        Sample {
            app: || voter::leaderboard_app(true),
            load: |e, _| voter::seed(e, voter_input::CONTESTANTS).expect("seed"),
            load_rows: 0,
            load_ee: |ee, stmts| {
                let seed = &stmts["seed"];
                ee.begin(None)?;
                for id in 1..=voter_input::CONTESTANTS as i64 {
                    ee.exec(seed["ins_c"], &[Value::Int(id), Value::Text(format!("contestant-{id}"))])?;
                    ee.exec(seed["ins_cnt"], &[Value::Int(id)])?;
                }
                ee.exec(seed["ins_total"], &[])?;
                ee.commit().map(|_| ())
            },
            stream: "votes_in",
            border_proc: "validate",
            partitions: 1,
            partition_col: 0,
            batches,
            border: |ee, s, t| {
                if ee.exec(s["chk_contestant"], &[t.get(1).clone()])?.rows.is_empty()
                    || !ee.exec(s["chk_phone"], &[t.get(0).clone()])?.rows.is_empty()
                {
                    return Ok(());
                }
                ee.exec(s["record"], t.values()).map(|_| ())
            },
            ops: TableOps {
                keyed_table: "votes",
                key_col: 0,
                point_select: "SELECT phone FROM votes WHERE phone = ?",
                update: "UPDATE votes SET ts = ts + 1 WHERE phone = ?",
                delete: "DELETE FROM votes WHERE phone = ?",
                insert: "INSERT INTO votes (phone, contestant, ts) VALUES (?, ?, ?)",
                insert_params: |i| vec![Value::Int(9_000_000_000 + i), Value::Int(1), Value::Int(i)],
            },
            scan_table: "votes",
            scans: [
                "SELECT COUNT(*) FROM votes WHERE contestant > 250",
                "SELECT SUM(ts), COUNT(*) FROM votes WHERE contestant >= 100 AND ts IS NOT NULL",
                "SELECT contestant, COUNT(*), SUM(ts), MIN(ts) FROM votes GROUP BY contestant",
                "SELECT phone, ts FROM votes ORDER BY ts DESC, phone LIMIT 10",
            ],
            adhoc: vec!["SELECT contestant, cnt FROM leaderboard WHERE kind = 'top' ORDER BY cnt DESC, contestant"],
            attribute,
        }
    }

    /// `voter_wire`: a sync vote is the wire, the partition round trip
    /// and the border transaction's statements (its two downstream
    /// transactions run after the acknowledgement).
    pub fn voter_wire(batches: Vec<Vec<Tuple>>) -> Sample {
        Sample::voter_like(batches, |p, _, _| {
            wire_us(p) + get(p, "engine.partition.noop_call_us") + get(p, "engine.ee.txn_us")
        })
    }

    /// `voter_recovery`: its primary operation is a (mostly delta)
    /// checkpoint — encoding the dirtied share of the catalog, plus one
    /// log flush and the manifest write a no-op call's flush stands for.
    pub fn voter_recovery(batches: Vec<Vec<Tuple>>) -> Sample {
        Sample::voter_like(batches, |p, _, _| {
            let share = get(p, "bench.delta_bytes") / get(p, "engine.checkpoint.bytes");
            get(p, "storage.snapshot.write_ms") * 1e3 * share.min(1.0)
                + get(p, "engine.log.flush_us")
        })
    }

    pub fn linear_road(batches: Vec<Vec<Tuple>>) -> Sample {
        Sample {
            app: linearroad::linear_road_app,
            load: |_, _| {},
            load_rows: 0,
            load_ee: |_, _| Ok(()),
            stream: "reports",
            border_proc: "update_position",
            partitions: crate::workloads::linearroad_batch::PARTITIONS,
            partition_col: 2,
            batches,
            border: lr_border,
            ops: TableOps {
                keyed_table: "vehicles",
                key_col: 0,
                point_select: "SELECT seg, stopped, time FROM vehicles WHERE vid = ?",
                update: "UPDATE vehicles SET seg = seg + 1 WHERE vid = ?",
                delete: "DELETE FROM vehicles WHERE vid = ?",
                insert: "INSERT INTO notifications (vid, time, seg) VALUES (?, ?, ?)",
                insert_params: |i| vec![Value::Int(i), Value::Int(i), Value::Int(1)],
            },
            scan_table: "notifications",
            scans: [
                "SELECT COUNT(*) FROM notifications WHERE seg > 50",
                "SELECT SUM(time), COUNT(*) FROM notifications WHERE seg >= 10 AND time IS NOT NULL",
                "SELECT seg, COUNT(*), SUM(time), MIN(time) FROM notifications GROUP BY seg",
                "SELECT vid, time FROM notifications ORDER BY time DESC, vid LIMIT 10",
            ],
            adhoc: vec!["SELECT amount FROM tolls WHERE vid = ?"],
            // One batch: a partition round trip, then per report the
            // border statements and its share of the split, the border
            // log record, and the batch's share of the window slides.
            attribute: |p, s, facts| {
                let n = mean_batch_len(s);
                let slides = facts.counters.window_slides as f64 / facts.border_ops.max(1) as f64;
                get(p, "engine.partition.noop_call_us")
                    + n * (get(p, "engine.ee.txn_us") - get(p, "engine.ee.begin_commit_ns") / 1e3)
                    + n * get(p, "engine.partition.split_ns_per_tuple") / 1e3
                    + get(p, "engine.log.append_ns") / 1e3
                    + slides * get(p, "engine.window.slide_us")
            },
        }
    }

    pub fn hybrid(batches: Vec<Vec<Tuple>>, rows: usize) -> Sample {
        Sample {
            app: hybrid_scan::app,
            load: hybrid_scan::preload,
            load_rows: rows,
            load_ee: |ee, stmts| {
                ee.begin(None)?;
                for k in 0..2_000 {
                    ee.exec(stmts["load"]["ins"], &hybrid_scan::event_values(k, Some(k)))?;
                }
                ee.commit().map(|_| ())
            },
            stream: "updates",
            border_proc: "apply",
            partitions: 1,
            partition_col: 1,
            batches,
            border: |ee, s, t| {
                let k = Value::Int(t.get(1).as_int()? % 2_000);
                ee.exec(s["upd"], &[t.get(2).clone(), k.clone()])?;
                ee.exec(s["chain"], &[k, t.get(2).clone()]).map(|_| ())
            },
            ops: TableOps {
                keyed_table: "events",
                key_col: 0,
                point_select: hybrid_scan::POINT_SQL,
                update: "UPDATE events SET v = v + 1 WHERE k = ?",
                delete: "DELETE FROM events WHERE k = ?",
                insert: "INSERT INTO audit_log (k, v) VALUES (?, ?)",
                insert_params: |i| vec![Value::Int(i), Value::Int(i)],
            },
            scan_table: "events",
            scans: hybrid_scan::SCANS.map(|(_, sql)| sql),
            adhoc: hybrid_scan::SCANS
                .iter()
                .map(|(_, sql)| *sql)
                .chain([hybrid_scan::POINT_SQL])
                .collect(),
            // One analytic scan: the wire, a partition round trip, and
            // the mean of the four shapes over the table's rows.
            attribute: |p, _, _| {
                let per_row = (get(p, "sql.vexec.filter_count_ns_per_row")
                    + get(p, "sql.vexec.agg_filtered_ns_per_row")
                    + get(p, "sql.vexec.group_by_100_ns_per_row")
                    + get(p, "sql.vexec.topk_ns_per_row"))
                    / 4.0;
                wire_us(p)
                    + get(p, "engine.partition.noop_call_us")
                    + per_row * get(p, "bench.scan_rows") / 1e3
            },
        }
    }

    fn units(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    fn fresh(&self, config: EngineConfig) -> Engine {
        let engine = Engine::start(config, (self.app)()).expect("fresh engine");
        (self.load)(&engine, self.load_rows);
        engine
    }
}

/// `update_position` for one report, minus the rare accident branch.
fn lr_border(ee: &mut ExecutionEngine, s: &StmtMap, t: &Tuple) -> Result<()> {
    let (vid, time, xway, seg, speed) = (
        t.get(0).clone(),
        t.get(1).clone(),
        t.get(2).clone(),
        t.get(3).clone(),
        t.get(4).clone(),
    );
    let prev = ee.exec(s["get_vehicle"], std::slice::from_ref(&vid))?;
    let crossed = match prev.rows.first() {
        None => {
            ee.exec(
                s["ins_vehicle"],
                &[vid.clone(), xway.clone(), seg.clone(), time.clone()],
            )?;
            true
        }
        Some(p) => {
            let crossed = p.get(0) != &seg;
            ee.exec(
                s["upd_vehicle"],
                &[seg.clone(), time.clone(), Value::Int(0), vid.clone()],
            )?;
            crossed
        }
    };
    if crossed {
        ee.exec(s["notify"], &[vid.clone(), time.clone(), seg.clone()])?;
        if ee
            .exec(s["get_toll"], std::slice::from_ref(&vid))?
            .rows
            .is_empty()
        {
            ee.exec(s["ins_toll"], std::slice::from_ref(&vid))?;
        } else {
            ee.exec(s["charge"], std::slice::from_ref(&vid))?;
        }
    }
    let win = [time, xway, seg, speed];
    ee.exec(s["win30"], &win)?;
    ee.exec(s["win300"], &win).map(|_| ())
}

// ---------------------------------------------------------------------
// Timing helpers
// ---------------------------------------------------------------------

/// Mean ns per call of `f` over `n` calls.
fn mean_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Median µs of `reps` timed calls.
fn median_us(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&mut v)
}

fn ms_of(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

fn probe_config(tag: &str) -> EngineConfig {
    EngineConfig::default().with_data_dir(crate::host::fresh_dir(tag))
}

/// Ingests every batch and drains; seconds taken.
fn stream_through(engine: &Engine, stream: &str, batches: &[Vec<Tuple>]) -> f64 {
    let t0 = Instant::now();
    for b in batches {
        engine.ingest(stream, b.clone()).expect("probe ingest");
    }
    engine.drain().expect("probe drain");
    t0.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------

fn protocol(p: &mut Probes, s: &Sample, rows_resp: Response) {
    let requests: Vec<Request> = s
        .batches
        .iter()
        .take(200)
        .map(|b| Request::Ingest {
            stream: s.stream.into(),
            rows: b.clone(),
            sync: true,
        })
        .collect();
    let mut responses: Vec<Response> = (0..requests.len() as u64)
        .map(|batch| Response::Batch { batch })
        .collect();
    responses.push(rows_resp);
    let tuples: usize = s.batches.iter().take(200).map(Vec::len).sum();
    let reps = (200_000 / tuples.max(1)).clamp(1, 200);

    let mut wire = Vec::with_capacity(1 << 16);
    let enc = mean_ns(reps, |_| {
        wire.clear();
        for r in &requests {
            write_frame(&mut wire, &r.encode()).expect("frame");
        }
    });
    let req_bytes = wire.len();
    let dec = mean_ns(reps, |_| {
        let mut cur = std::io::Cursor::new(&wire);
        while let Some(payload) = read_frame(&mut cur).expect("frame") {
            std::hint::black_box(Request::decode(&payload).expect("decode"));
        }
    });
    p.insert("server.protocol.req_encode_ns", enc / requests.len() as f64);
    p.insert("server.protocol.req_decode_ns", dec / requests.len() as f64);
    p.insert(
        "server.protocol.req_bytes",
        req_bytes as f64 / requests.len() as f64,
    );

    let mut wire = Vec::with_capacity(1 << 14);
    let enc = mean_ns(reps * 4, |_| {
        wire.clear();
        for r in &responses {
            write_frame(&mut wire, &r.encode()).expect("frame");
        }
    });
    let resp_bytes = wire.len();
    let dec = mean_ns(reps * 4, |_| {
        let mut cur = std::io::Cursor::new(&wire);
        while let Some(payload) = read_frame(&mut cur).expect("frame") {
            std::hint::black_box(Response::decode(&payload).expect("decode"));
        }
    });
    p.insert(
        "server.protocol.resp_encode_ns",
        enc / responses.len() as f64,
    );
    p.insert(
        "server.protocol.resp_decode_ns",
        dec / responses.len() as f64,
    );
    p.insert(
        "server.protocol.resp_bytes",
        resp_bytes as f64 / responses.len() as f64,
    );
}

fn codec(p: &mut Probes, s: &Sample) {
    let tuples: Vec<&Tuple> = s.batches.iter().flatten().take(5_000).collect();
    let reps = (200_000 / tuples.len().max(1)).max(1);
    let mut enc = Encoder::with_capacity(1 << 16);
    let e = mean_ns(reps, |_| {
        enc.reset();
        for t in &tuples {
            enc.put_tuple(t);
        }
    });
    let bytes = enc.as_bytes().to_vec();
    let d = mean_ns(reps, |_| {
        let mut dec = Decoder::new(&bytes);
        for _ in 0..tuples.len() {
            std::hint::black_box(dec.get_tuple().expect("tuple"));
        }
    });
    p.insert("common.codec.encode_ns_per_tuple", e / tuples.len() as f64);
    p.insert("common.codec.decode_ns_per_tuple", d / tuples.len() as f64);
}

fn admission_and_partition(p: &mut Probes, s: &Sample, args: &RunArgs) {
    let gate = AdmissionGate::new(1024);
    p.insert(
        "engine.admission.acquire_release_ns",
        mean_ns(args.scaled(200_000), |_| {
            drop(std::hint::black_box(gate.try_acquire()));
        }),
    );

    let noop = App::builder()
        .proc("noop", &[], &[], |_| Ok(()))
        .build()
        .expect("noop app");
    let engine = Engine::start(engine_config("probe-noop", 1), noop).expect("noop engine");
    for _ in 0..200 {
        engine.call_at(0, "noop", vec![]).expect("noop");
    }
    p.insert(
        "engine.partition.noop_call_us",
        median_us(args.scaled(3_000).max(50), |_| {
            engine.call_at(0, "noop", vec![]).expect("noop");
        }),
    );
    discard(engine);

    let tuples = s.units();
    let reps = (100_000 / tuples.max(1)).max(1);
    let split = mean_ns(reps, |_| {
        for b in &s.batches {
            std::hint::black_box(split_by_key(b.clone(), s.partition_col, 2));
        }
    });
    p.insert("engine.partition.split_ns_per_tuple", split / tuples as f64);

    // The workload's own input on one partition, in-process: what it
    // does without the wire and without a second core's help.
    let engine = s.fresh(engine_config("probe-p1", 1));
    let secs = stream_through(&engine, s.stream, &s.batches);
    p.insert("engine.partition.p1_inproc_per_s", tuples as f64 / secs);
    discard(engine);
}

/// `n` one-tuple batches through a chain app; seconds and round trips.
fn chain_run(app: App, stream: &str, boundary: BoundaryMode, batches: &[Vec<Tuple>]) -> (f64, u64) {
    let engine = Engine::start(probe_config("probe-chain").with_boundary(boundary), app)
        .expect("chain engine");
    stream_through(&engine, stream, &batches[..batches.len() / 10]);
    let before = EngineMetrics::get(&engine.metrics().ee_round_trips);
    let secs = stream_through(&engine, stream, batches);
    let trips = EngineMetrics::get(&engine.metrics().ee_round_trips) - before;
    discard(engine);
    (secs, trips)
}

fn scheduler_and_triggers(p: &mut Probes, args: &RunArgs) {
    let n = args.scaled(2_000).max(20);
    let ones: Vec<Vec<Tuple>> = (0..n as i64)
        .map(|v| vec![sstore_common::tuple![v]])
        .collect();
    let inline = BoundaryMode::Inline;
    // Median of three runs each: a chain run is tens of milliseconds
    // and one descheduling would otherwise be the whole difference.
    let med = |f: &dyn Fn() -> f64| stats::median(&mut [f(), f(), f()]);
    let pe10 = med(&|| chain_run(micro::pe_chain(10), "wf_in", inline, &ones).0);
    let pe1 = med(&|| chain_run(micro::pe_chain(1), "wf_in", inline, &ones).0);
    p.insert(
        "engine.scheduler.pe_hop_us",
        (pe10 - pe1) * 1e6 / 9.0 / n as f64,
    );

    let tens: Vec<Vec<Tuple>> = (0..n as i64 / 10)
        .map(|b| (0..10).map(|v| sstore_common::tuple![b * 10 + v]).collect())
        .collect();
    let ee10 = med(&|| chain_run(micro::ee_chain_sstore(10), "chain_in", inline, &tens).0);
    let ee0 = med(&|| chain_run(micro::ee_chain_sstore(0), "chain_in", inline, &tens).0);
    p.insert(
        "engine.ee.trigger_hop_ns",
        (ee10 - ee0) * 1e9 / 10.0 / n as f64,
    );

    let channel = || {
        chain_run(
            micro::ee_chain_sstore(10),
            "chain_in",
            BoundaryMode::Channel,
            &tens,
        )
    };
    let runs = [channel(), channel(), channel()];
    let chan = stats::median(&mut runs.map(|(secs, _)| secs));
    let trips = runs[0].1;
    p.insert(
        "engine.boundary.channel_hop_us",
        (chan - ee10) * 1e6 / trips.max(1) as f64,
    );
}

fn standalone_ee(app: &App) -> (ExecutionEngine, ProcStmtMap) {
    let ids = Arc::new(AppIds::build(app).expect("app ids"));
    ExecutionEngine::install(app, ids, Arc::new(EngineMetrics::new())).expect("install")
}

fn ee_probes(p: &mut Probes, s: &Sample) {
    let app = (s.app)();
    let (mut ee, stmts) = standalone_ee(&app);
    (s.load_ee)(&mut ee, &stmts).expect("load standalone EE");
    let border = &stmts[s.border_proc];
    let tuples: Vec<&Tuple> = s.batches.iter().flatten().take(4_000).collect();
    let (commit, abort) = tuples.split_at(tuples.len() / 2);

    p.insert(
        "engine.ee.begin_commit_ns",
        mean_ns(20_000, |_| {
            ee.begin(None).expect("begin");
            ee.commit().expect("commit");
        }),
    );
    // Abort first, on tuples the committed half has not touched, so
    // both halves run the same statements against the same state.
    let abort_ns = mean_ns(abort.len(), |i| {
        ee.begin(Some(BatchId(i as u64 + 1))).expect("begin");
        (s.border)(&mut ee, border, abort[i]).expect("border statements");
        ee.abort().expect("abort");
    });
    p.insert("engine.ee.abort_us", abort_ns / 1e3);
    let txn_ns = mean_ns(commit.len(), |i| {
        ee.begin(Some(BatchId(i as u64 + 1))).expect("begin");
        (s.border)(&mut ee, border, commit[i]).expect("border statements");
        ee.commit().expect("commit");
    });
    p.insert("engine.ee.txn_us", txn_ns / 1e3);
}

/// Rows per tick, hence per extent, in the window probes.
const EXTENT_ROWS: usize = 1_000;

/// Time windows on a standalone EE: staging rows, then the slide that
/// activates one extent and runs its GROUP BY trigger. The Linear Road
/// windows serve every workload — they are the engine's only
/// event-time windows — fed seeded traffic.
fn window_probes(p: &mut Probes, seed: u64) {
    let app = linearroad::linear_road_app();
    let (mut ee, stmts) = standalone_ee(&app);
    let stmts = &stmts["update_position"];
    let reports = ee.table_id("reports").expect("reports stream");
    let seg_win = ee.table_id("seg_win").expect("seg_win");
    let mut gen = sstore_workloads::gen::TrafficGen::new(seed, 4, EXTENT_ROWS / 4);
    let (mut insert_ns, mut slide_us) = (Vec::new(), Vec::new());
    for tick in 0..12u64 {
        let rows: Vec<Tuple> = gen
            .tick()
            .into_iter()
            .flatten()
            .map(|r| r.tuple())
            .collect();
        ee.begin(Some(BatchId(tick + 1))).expect("begin");
        ee.observe_input(reports, &rows).expect("observe");
        let t0 = Instant::now();
        for t in &rows {
            let win = [
                t.get(1).clone(),
                t.get(2).clone(),
                t.get(3).clone(),
                t.get(4).clone(),
            ];
            ee.exec(stmts["win30"], &win).expect("stage");
        }
        insert_ns.push(t0.elapsed().as_nanos() as f64 / rows.len() as f64);
        let due = ee.commit().expect("commit").slides;
        if due.contains(&seg_win) {
            ee.begin(Some(BatchId(tick + 1))).expect("begin");
            let t0 = Instant::now();
            ee.process_slides(seg_win).expect("slide");
            slide_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            ee.commit().expect("commit");
        }
    }
    p.insert("engine.window.insert_ns", stats::median(&mut insert_ns));
    p.insert("engine.window.slide_us", stats::median(&mut slide_us));

    // The same extent as a Window-kind table, aggregated columnar.
    let mut cat = Catalog::new();
    let schema = Schema::of(&[
        ("ts", DataType::Int),
        ("xway", DataType::Int),
        ("seg", DataType::Int),
        ("speed", DataType::Int),
    ]);
    let win = cat
        .create_table("extent", TableKind::Window, schema)
        .expect("extent table");
    for r in gen.tick().into_iter().flatten() {
        win.insert(sstore_common::tuple![r.time, r.xway, r.seg, r.speed])
            .expect("row");
    }
    let sql = "SELECT xway, seg, MIN(ts), COUNT(*), SUM(speed) FROM extent GROUP BY xway, seg";
    let BoundStatement::Select(sel) = Planner::new(&cat).plan_sql(sql).expect("plan") else {
        unreachable!("a SELECT")
    };
    let ns = mean_ns(200, |_| {
        std::hint::black_box(run_select_columnar(&cat, &sel, &[]).expect("extent scan"));
    });
    p.insert(
        "sql.vexec.window_extent_ns_per_row",
        ns / EXTENT_ROWS as f64,
    );
}

fn log_probes(p: &mut Probes, s: &Sample) {
    let dir = crate::host::fresh_dir("probe-log");
    // Group commit far above anything appended here: flushes happen
    // only where the probe asks for them.
    let manual = |fsync| LoggingConfig {
        enabled: true,
        group_commit: usize::MAX,
        fsync,
        ..LoggingConfig::default()
    };
    let mut log = CommandLog::create(dir.join("append.cmdlog"), manual(false)).expect("log");
    let records = s.batches.len();
    let reps = (100_000 / s.units().max(1)).clamp(1, 50);
    let append = mean_ns(records * reps, |i| {
        log.append_border(
            s.border_proc,
            s.stream,
            BatchId(i as u64 + 1),
            &s.batches[i % records],
        )
        .expect("append");
    });
    log.flush().expect("flush");
    p.insert("engine.log.append_ns", append);
    p.insert(
        "engine.log.bytes_per_op",
        log.total_bytes() as f64 / (s.units() * reps) as f64,
    );

    for (name, fsync, rounds) in [
        ("engine.log.flush_us", false, 200usize),
        ("engine.log.fsync_us", true, 30),
    ] {
        let mut log =
            CommandLog::create(dir.join(format!("{name}.cmdlog")), manual(fsync)).expect("log");
        let us = median_us(rounds, |r| {
            // Appends are outside the clock only in effect: eight
            // appends cost ~1 µs against a write (and sync) syscall.
            for i in 0..8 {
                let b = &s.batches[(r * 8 + i) % records];
                log.append_border(s.border_proc, s.stream, BatchId((r * 8 + i) as u64 + 1), b)
                    .expect("append");
            }
            log.flush().expect("flush");
        });
        p.insert(name, us);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The live engine's chain, from its manifest.
fn chain_of(config: &EngineConfig) -> Vec<u64> {
    read_manifest_on(config.vfs.as_ref(), &config.manifest_path())
        .expect("manifest")
        .map(|m| m.epochs)
        .unwrap_or_default()
}

struct Durability {
    /// Catalog of partition 0 as the base image holds it.
    catalog: Catalog,
    engine: Engine,
}

/// Checkpoints (a base and a delta), crashes and recovers the live
/// engine; leaves the recovered engine for the session probes.
fn durability(
    p: &mut Probes,
    s: &Sample,
    engine: Engine,
    batches: &mut impl Iterator<Item = Vec<Tuple>>,
    between: usize,
) -> Durability {
    let config = engine.config().clone();
    let gc_before = EngineMetrics::get(&engine.metrics().gc_segments_deleted);
    let mut feed = |engine: &Engine| {
        for b in batches.by_ref().take(between) {
            engine.ingest(s.stream, b).expect("probe ingest");
        }
        engine.drain().expect("drain");
    };
    // (milliseconds, image bytes) of the latest image of each kind.
    let mut base: Option<(f64, f64)> = None;
    let mut delta: Option<(f64, f64)> = None;
    // A checkpoint is a base when the chain restarts at one epoch. At
    // most `delta_chain_max` rounds see both kinds.
    for _ in 0..=config.delta_chain_max {
        feed(&engine);
        let ms = ms_of(|| engine.checkpoint().expect("checkpoint"));
        let chain = chain_of(&config);
        let bytes = EngineMetrics::get(&engine.metrics().checkpoint_bytes) as f64;
        let slot = if chain.len() == 1 {
            &mut base
        } else {
            &mut delta
        };
        *slot = Some((ms, bytes));
        if base.is_some() && delta.is_some() && chain.len() > 1 {
            break;
        }
    }
    let (base, delta) = (base.expect("a base image"), delta.expect("a delta image"));
    p.insert("engine.checkpoint.base_ms", base.0);
    p.insert("engine.checkpoint.delta_ms", delta.0);
    p.insert("engine.checkpoint.bytes", base.1);
    p.insert("bench.delta_bytes", delta.1);

    // The live chain ends with a delta; restore it on a standalone EE.
    let chain = chain_of(&config);
    let images: Vec<Vec<u8>> = chain
        .iter()
        .map(|e| {
            read_checkpoint(&config.checkpoint_path(0, *e))
                .expect("image")
                .expect("present")
                .ee_image
        })
        .collect();
    let app = (s.app)();
    let (mut ee, _) = standalone_ee(&app);
    let restore_ms = ms_of(|| ee.restore_chain(&images).expect("restore chain"));
    p.insert("engine.recovery.restore_ms", restore_ms);
    // The base image opens with the catalog image (ee.rs `checkpoint`).
    let cat_bytes = Decoder::new(&images[0])
        .get_bytes()
        .expect("catalog image")
        .to_vec();
    let catalog = snapshot::decode_catalog(&cat_bytes).expect("catalog");

    feed(&engine);
    engine.flush_logs().expect("flush");
    p.insert(
        "engine.checkpoint.gc_segments",
        (EngineMetrics::get(&engine.metrics().gc_segments_deleted) - gc_before) as f64,
    );
    engine.shutdown();
    let t0 = Instant::now();
    let (engine, report) = recovery::recover(config.clone(), (s.app)()).expect("recover");
    p.insert(
        "engine.recovery.recover_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    p.insert(
        "engine.recovery.replay_records",
        report.records_replayed as f64,
    );

    // The same suffix under weak recovery (border records only, the
    // interior re-derived through PE triggers): the paper's Fig. 9b.
    let weak_cfg = engine_config("probe-weak", s.partitions).with_recovery(RecoveryMode::Weak);
    let weak = s.fresh(weak_cfg.clone());
    weak.checkpoint().expect("checkpoint");
    stream_through(&weak, s.stream, &s.batches[..between.min(s.batches.len())]);
    weak.flush_logs().expect("flush");
    weak.shutdown();
    let t0 = Instant::now();
    let (weak, _) = recovery::recover(weak_cfg, (s.app)()).expect("weak recover");
    p.insert(
        "engine.recovery.weak_recover_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    );
    discard(weak);

    Durability { catalog, engine }
}

fn session_probes(
    p: &mut Probes,
    s: &Sample,
    engine: Engine,
    batches: &mut impl Iterator<Item = Vec<Tuple>>,
    calls: usize,
) -> Engine {
    let engine = Arc::new(engine);
    let mut server = Server::start(engine.clone(), "127.0.0.1:0").expect("server");
    let mut client = Client::connect(server.local_addr(), "probe").expect("connect");
    for t in 0..50 {
        client.ping(t).expect("ping");
    }
    p.insert(
        "server.session.ping_rtt_us",
        median_us(500, |t| {
            client.ping(t as u64).expect("ping");
        }),
    );
    // The same call over TCP and in-process, alternated on one engine.
    let (mut tcp, mut inproc) = (Vec::new(), Vec::new());
    for (i, b) in batches.take(calls).enumerate() {
        let t0 = Instant::now();
        if i % 2 == 0 {
            client.ingest_sync(s.stream, b).expect("tcp ingest");
            tcp.push(t0.elapsed().as_nanos() as f64 / 1e3);
        } else {
            engine.ingest_sync(s.stream, b).expect("ingest");
            inproc.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    engine.drain().expect("drain");
    p.insert(
        "server.session.edge_overhead_us",
        stats::median(&mut tcp) - stats::median(&mut inproc),
    );
    let _ = client.goodbye();
    server.stop();
    drop(server);
    Arc::try_unwrap(engine)
        .ok()
        .expect("server released the engine")
}

fn bound_select(cat: &Catalog, sql: &str) -> sstore_sql::plan::BoundSelect {
    match Planner::new(cat).plan_sql(sql).expect("plan") {
        BoundStatement::Select(s) => s,
        _ => unreachable!("{sql} is a SELECT"),
    }
}

fn sql_and_storage(p: &mut Probes, s: &Sample, cat: &mut Catalog, args: &RunArgs) -> Response {
    // Front end: every statement the workload's app declares, plus the
    // ad-hoc ones it sends.
    let app = (s.app)();
    let texts: Vec<String> = app
        .procs
        .iter()
        .flat_map(|pr| pr.statements.iter().map(|(_, sql)| sql.clone()))
        .chain(app.ee_triggers.iter().flat_map(|t| t.sql.iter().cloned()))
        .chain(s.adhoc.iter().map(|a| (*a).to_owned()))
        .collect();
    let reps = 20;
    let parse = mean_ns(reps, |_| {
        for t in &texts {
            std::hint::black_box(sstore_sql::parse(t).expect("parse"));
        }
    });
    let parsed: Vec<_> = texts
        .iter()
        .map(|t| sstore_sql::parse(t).expect("parse"))
        .collect();
    let plan = mean_ns(reps, |_| {
        for st in &parsed {
            std::hint::black_box(Planner::new(cat).plan(st).expect("plan"));
        }
    });
    p.insert("sql.parser.parse_us", parse / texts.len() as f64 / 1e3);
    p.insert("sql.plan.plan_us", plan / texts.len() as f64 / 1e3);

    // Scans over the workload's largest table, columnar and row-wise.
    let rows = cat.table(s.scan_table).expect("scan table").len().max(1);
    p.insert("bench.scan_rows", rows as f64);
    p.insert("storage.table.rows", rows as f64);
    let scan_reps = (2_000_000 / rows).clamp(1, 50);
    for (name, sql) in [
        "sql.vexec.filter_count_ns_per_row",
        "sql.vexec.agg_filtered_ns_per_row",
        "sql.vexec.group_by_100_ns_per_row",
        "sql.vexec.topk_ns_per_row",
    ]
    .into_iter()
    .zip(s.scans)
    {
        let sel = bound_select(cat, sql);
        let ns = mean_ns(scan_reps, |_| {
            std::hint::black_box(run_select_columnar(cat, &sel, &[]).expect("columnar scan"));
        });
        p.insert(name, ns / rows as f64);
    }
    let sel = bound_select(cat, s.scans[0]);
    let ns = mean_ns(scan_reps.div_ceil(2), |_| {
        std::hint::black_box(run_select_rows_rowwise(cat, &sel, &[]).expect("row-wise scan"));
    });
    p.insert("sql.exec.rowwise_filter_count_ns_per_row", ns / rows as f64);

    {
        let table = cat.table(s.scan_table).expect("scan table");
        let dtypes: Vec<DataType> = table.schema().columns().iter().map(|c| c.dtype).collect();
        let wanted: Vec<usize> = (0..dtypes.len()).collect();
        let mut chunk = Vec::with_capacity(1024);
        let scan = mean_ns(scan_reps, |_| {
            let mut it = table.scan_chunks();
            loop {
                chunk.clear();
                if !it.next_chunk(1024, &mut chunk) {
                    break;
                }
                std::hint::black_box(&chunk);
            }
        });
        p.insert("storage.table.scan_ns_per_row", scan / rows as f64);
        let both = mean_ns(scan_reps, |_| {
            let mut it = table.scan_chunks();
            loop {
                chunk.clear();
                if !it.next_chunk(1024, &mut chunk) {
                    break;
                }
                std::hint::black_box(
                    ColumnarBatch::from_rows(&chunk, &wanted, &dtypes).expect("batch"),
                );
            }
        });
        p.insert(
            "sql.batch.transpose_ns_per_row",
            (both - scan).max(0.0) / rows as f64,
        );
    }

    // Point statements through the keyed table's hash index.
    let keyed = cat.table(s.ops.keyed_table).expect("keyed table");
    let n = args.scaled(10_000).min(keyed.len() / 2).max(1);
    let (ids, keys): (Vec<_>, Vec<Value>) = keyed
        .scan_ordered()
        .take(n)
        .map(|(id, t)| (id, t.get(s.ops.key_col).clone()))
        .unzip();
    let key_cols = [s.ops.key_col];
    p.insert(
        "storage.index.hash_lookup_ns",
        mean_ns(n, |i| {
            std::hint::black_box(keyed.lookup_eq(&key_cols, std::slice::from_ref(&keys[i])));
        }),
    );
    p.insert(
        "storage.table.get_ns",
        mean_ns(n, |i| {
            std::hint::black_box(keyed.get(ids[i]));
        }),
    );
    let mut btree = Index::new(IndexDef {
        name: "probe_btree".into(),
        key_columns: vec![s.ops.key_col],
        kind: IndexKind::BTree,
        unique: false,
    });
    p.insert(
        "storage.index.insert_ns",
        mean_ns(n, |i| btree.insert(vec![keys[i].clone()], ids[i])),
    );
    p.insert(
        "storage.index.btree_lookup_ns",
        mean_ns(n, |i| {
            std::hint::black_box(btree.get(std::slice::from_ref(&keys[i])));
        }),
    );

    let mut effects = Vec::new();
    let mut run = |cat: &mut Catalog, sql: &str, params: &dyn Fn(usize) -> Vec<Value>| -> f64 {
        let stmt = Planner::new(cat).plan_sql(sql).expect("plan");
        mean_ns(n, |i| {
            effects.clear();
            std::hint::black_box(
                sstore_sql::execute(cat, &stmt, &params(i), &mut effects).expect("execute"),
            );
        })
    };
    let by_key = |i: usize| vec![keys[i].clone()];
    let point_rows = {
        let stmt = Planner::new(cat)
            .plan_sql(s.ops.point_select)
            .expect("plan");
        sstore_sql::execute(cat, &stmt, &by_key(0), &mut Vec::new()).expect("point select")
    };
    p.insert(
        "sql.exec.point_select_ns",
        run(cat, s.ops.point_select, &by_key),
    );
    p.insert("sql.exec.update_ns", run(cat, s.ops.update, &by_key));
    p.insert(
        "sql.exec.insert_ns",
        run(cat, s.ops.insert, &|i| (s.ops.insert_params)(i as i64)),
    );

    // Storage calls under the same rows: rewrite, remove, put back.
    let keyed = cat.table_mut(s.ops.keyed_table).expect("keyed table");
    let tuples: Vec<Tuple> = ids
        .iter()
        .map(|id| keyed.get(*id).expect("live row").clone())
        .collect();
    p.insert(
        "storage.table.update_ns",
        mean_ns(n, |i| {
            keyed.update(ids[i], tuples[i].clone()).expect("update");
        }),
    );
    p.insert(
        "storage.table.delete_ns",
        mean_ns(n, |i| {
            keyed.delete(ids[i]).expect("delete");
        }),
    );
    p.insert(
        "storage.table.insert_ns",
        mean_ns(n, |i| {
            keyed.insert(tuples[i].clone()).expect("insert");
        }),
    );
    p.insert("sql.exec.delete_ns", run(cat, s.ops.delete, &by_key));

    // Snapshot of everything the workload holds.
    let mut image = Vec::new();
    p.insert(
        "storage.snapshot.write_ms",
        ms_of(|| image = snapshot::encode_catalog(cat)),
    );
    p.insert(
        "storage.snapshot.read_ms",
        ms_of(|| {
            std::hint::black_box(snapshot::decode_catalog(&image).expect("decode catalog"));
        }),
    );
    p.insert("storage.snapshot.bytes", image.len() as f64);

    Response::Rows {
        columns: point_rows.columns,
        rows: point_rows.rows,
        rows_affected: 0,
    }
}

/// Span-derived figures and the trace file.
fn span_metrics(p: &mut Probes, workload: &str, tracers: &[(&str, &Tracer)], args: &RunArgs) {
    let mut submit = Vec::new();
    let mut wait = Vec::new();
    let mut recorded = 0u64;
    let threads: Vec<(&str, &[trace::Span])> =
        tracers.iter().map(|(n, t)| (*n, t.spans())).collect();
    for (_, spans) in &threads {
        let selfs = trace::self_times(spans);
        for (s, ns) in spans.iter().zip(selfs) {
            match s.name {
                "encode" | "send" | "ingest" => submit.push(ns as f64 / 1e3),
                "recv" | "drain" => wait.push(ns as f64 / 1e3),
                _ => {}
            }
        }
    }
    let path = args.out_dir.join(format!("trace-{workload}.jsonl"));
    match trace::write_jsonl(&path, &threads) {
        Ok(n) => recorded = n,
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    let dropped: u64 = tracers.iter().map(|(_, t)| t.dropped).sum();
    if dropped > 0 {
        eprintln!(
            "note {workload}: {dropped} spans beyond the pre-sized buffers were not recorded"
        );
    }
    p.insert("bench.span.submit_us", stats::median(&mut submit));
    p.insert("bench.span.wait_us", stats::median(&mut wait));
    p.insert("bench.spans_recorded", recorded as f64);
}

/// Runs every probe and lays the results out by registry name.
pub fn ledger(
    workload: &str,
    s: &Sample,
    facts: &PhaseFacts,
    engine: Engine,
    tracers: &[(&str, &Tracer)],
    args: &RunArgs,
) -> Vec<Reported> {
    let mut p = Probes::new();
    // The live engine must only be fed input it has never seen (a
    // repeated vote is a rejected vote): the sample is sized for the
    // worst case of checkpoint rounds, and never wraps.
    let (between, calls) = (args.scaled(20), args.scaled(60).max(4));
    let needed = between * (engine.config().delta_chain_max + 2) + calls;
    assert!(
        s.batches.len() >= needed,
        "sample of {} batches, probes need {needed}",
        s.batches.len()
    );
    let mut batches = s.batches.iter().cloned();

    span_metrics(&mut p, workload, tracers, args);
    let Durability {
        mut catalog,
        engine,
    } = durability(&mut p, s, engine, &mut batches, between);
    let engine = session_probes(&mut p, s, engine, &mut batches, calls);
    discard(engine);
    let rows_resp = sql_and_storage(&mut p, s, &mut catalog, args);
    drop(catalog);
    protocol(&mut p, s, rows_resp);
    codec(&mut p, s);
    admission_and_partition(&mut p, s, args);
    scheduler_and_triggers(&mut p, args);
    ee_probes(&mut p, s);
    window_probes(&mut p, args.seed);
    log_probes(&mut p, s);

    // Counts over the measured phases.
    let c = &facts.counters;
    let plans = (c.adhoc_hits + c.adhoc_misses).max(1);
    for (name, v) in [
        ("server.session.requests", facts.server_requests),
        ("engine.admission.max_in_flight", facts.max_in_flight),
        ("engine.admission.shed", c.shed),
        ("engine.partition.txns_committed", c.txns_committed),
        ("engine.scheduler.pe_trigger_fires", c.pe_trigger_fires),
        ("engine.ee.ee_trigger_fires", c.ee_trigger_fires),
        ("engine.ee.round_trips", c.ee_round_trips),
        ("engine.window.slides", c.window_slides),
        ("engine.window.late_merged", c.late_merged),
        ("engine.window.late_dropped", c.late_dropped),
        ("engine.log.records", c.log_records),
        ("engine.log.flushes", c.log_flushes),
        ("engine.log.segments", facts.log_segments),
        ("sql.vexec.batches", c.columnar_batches),
        ("sql.vexec.window_batches", c.columnar_window_batches),
        ("sql.vexec.fallback_small", c.fallback_small),
        ("sql.vexec.fallback_shape", c.fallback_shape),
    ] {
        p.insert(name, v as f64);
    }
    p.insert(
        "sql.plan.adhoc_hit_ratio",
        c.adhoc_hits as f64 / plans as f64,
    );

    let attributed = (s.attribute)(&p, s, facts);
    p.insert("bench.attributed_us", attributed);
    p.insert("bench.unattributed_us", facts.latency_p50_us - attributed);
    p.insert("bench.trace_overhead_frac", facts.trace_overhead_frac);
    p.insert("bench.latency_tail_us", facts.latency_tail_us);
    p.insert("bench.latency_max_us", facts.latency_max_us);
    p.insert("bench.second_tail_us", facts.second_tail_us);
    p.insert("bench.rss_growth_mb", facts.rss_growth_mb);

    crate::registry::PER_LAYER
        .iter()
        .filter_map(|m| p.get(m.name).map(|v| (m.name, *v, 1)))
        .collect()
}
