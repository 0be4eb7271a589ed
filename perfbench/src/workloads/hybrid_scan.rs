//! `hybrid_scan`: writes beside reads on one partition. A closed-loop
//! writer streams updates and inserts into a 200 000-row table (past the
//! CPU caches; the voter tables fit) through a four-stage EE-trigger
//! chain, while a reader on a fixed schedule runs analytic scans and
//! prepared point lookups over TCP. The reader's demand is fixed, so a
//! faster scan shows up as *more* writer throughput, and a scan
//! optimisation that taxes writes or point lookups shows up as less.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sstore_common::{tuple, Column, DataType, Schema, Tuple, Value};
use sstore_engine::{App, Engine};
use sstore_server::protocol::{Request, Response};
use sstore_server::Server;
use sstore_storage::index::IndexDef;
use sstore_storage::IndexKind;

use super::{
    discard, engine_config, log_segments_on_disk, median_setup, note_engine_histogram,
    trace_overhead, Counters, PacedLog, PhaseFacts, Report, RunArgs,
};
use crate::layers;
use crate::pace::{backlog_growing, Pacer};
use crate::stats;
use crate::trace::Tracer;
use crate::wire::{self, RecvHalf, SendHalf};

pub const PRELOAD_ROWS: usize = 200_000;
const LOAD_CHUNK: usize = 10_000;
const BATCH_TUPLES: usize = 100;
const WARMUP_BATCHES: usize = 100;
/// Of every hundred stream tuples, this many replace a row (DELETE +
/// INSERT) in a ring of keys above the preloaded range; the rest update
/// a preloaded row by primary key. Replacing rather than only inserting
/// keeps the table at one size, so a faster writer does not make the
/// reader's scans longer.
const INSERT_PERCENT: u32 = 20;
const RING_KEYS: usize = 20_000;
/// Reader operations per second: twelve lookups, then one scan — 8
/// scans/s of ~30 ms each here, a quarter of the partition's time.
const READER_PER_S: f64 = 104.0;
const SCAN_EVERY: u64 = 13;
/// Width of the slices the writer's throughput is the median of.
const SLICE_S: f64 = 0.5;

pub const SCANS: [(&str, &str); 4] = [
    ("filter_count", "SELECT COUNT(*) FROM events WHERE v > 500"),
    (
        "agg_filtered",
        "SELECT SUM(v), COUNT(*) FROM events WHERE f >= 100.0 AND v IS NOT NULL",
    ),
    (
        "group_by_100",
        "SELECT h, COUNT(*), SUM(v), MIN(v) FROM events GROUP BY h",
    ),
    (
        "topk",
        "SELECT k, v FROM events ORDER BY v DESC, k LIMIT 10",
    ),
];
pub const POINT_SQL: &str = "SELECT k, g, h, v FROM events WHERE k = ?";
const TEXTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Column values of row `k` other than `v` once the stream has touched
/// it: (g, h, v, f, s). ~6 % NULL `v`, ~4 % NULL `f`, as the columnar
/// scan benchmark's table has.
fn event_fields(k: i64) -> (i64, i64, Option<i64>, Option<f64>, &'static str) {
    (
        k % 8,
        k * 31 % 100,
        (k % 17 != 0).then_some(k * 37 % 1000),
        (k % 23 != 0).then_some((k % 997) as f64 * 0.5),
        TEXTS[(k % 4) as usize],
    )
}

pub fn event_values(k: i64, v: Option<i64>) -> [Value; 6] {
    let (g, h, _, f, s) = event_fields(k);
    [
        Value::Int(k),
        Value::Int(g),
        Value::Int(h),
        v.map_or(Value::Null, Value::Int),
        f.map_or(Value::Null, Value::Float),
        Value::Text(s.to_owned()),
    ]
}

pub fn app() -> App {
    let kv = || Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let events = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("g", DataType::Int),
        Column::new("h", DataType::Int),
        Column::nullable("v", DataType::Int),
        Column::nullable("f", DataType::Float),
        Column::new("s", DataType::Text),
    ])
    .expect("events schema");
    let mut b = App::builder()
        .table_indexed(
            "events",
            events,
            vec![IndexDef {
                name: "events_pk".into(),
                key_columns: vec![0],
                kind: IndexKind::Hash,
                unique: true,
            }],
        )
        .table("audit_log", kv())
        .stream(
            "updates",
            Schema::of(&[
                ("op", DataType::Int),
                ("k", DataType::Int),
                ("v", DataType::Int),
            ]),
        );
    for c in 1..=4 {
        b = b.stream(&format!("c{c}"), kv());
    }
    b = b
        .proc(
            "load",
            &[(
                "ins",
                "INSERT INTO events (k, g, h, v, f, s) VALUES (?, ?, ?, ?, ?, ?)",
            )],
            &[],
            |ctx| {
                let (start, n) = (ctx.params()[0].as_int()?, ctx.params()[1].as_int()?);
                for k in start..start + n {
                    ctx.sql("ins", &event_values(k, event_fields(k).2))?;
                }
                Ok(())
            },
        )
        .proc(
            "apply",
            &[
                ("upd", "UPDATE events SET v = ? WHERE k = ?"),
                ("del", "DELETE FROM events WHERE k = ?"),
                (
                    "ins",
                    "INSERT INTO events (k, g, h, v, f, s) VALUES (?, ?, ?, ?, ?, ?)",
                ),
                ("chain", "INSERT INTO c1 (k, v) VALUES (?, ?)"),
            ],
            &[],
            |ctx| {
                for r in ctx.input().to_vec() {
                    let (op, k, v) = (r.get(0).as_int()?, r.get(1).clone(), r.get(2).clone());
                    if op == 0 {
                        ctx.sql("upd", &[v.clone(), k.clone()])?;
                    } else {
                        ctx.sql("del", std::slice::from_ref(&k))?;
                        ctx.sql("ins", &event_values(k.as_int()?, Some(v.as_int()?)))?;
                    }
                    ctx.sql("chain", &[k, v])?;
                }
                Ok(())
            },
        )
        .pe_trigger("updates", "apply");
    // Four trigger hops inside the EE per tuple (the paper's Figure 5
    // shape), the last landing in a public table.
    for c in 1..=4 {
        let target = if c == 4 {
            "audit_log".to_owned()
        } else {
            format!("c{}", c + 1)
        };
        let sql = format!("INSERT INTO {target} (k, v) SELECT k, v + 1 FROM c{c}");
        b = b.ee_trigger(&format!("c{c}"), &[&sql]);
    }
    b.build().expect("hybrid_scan app is valid")
}

/// Loads `rows` preload rows through the `load` procedure.
pub fn preload(engine: &Engine, rows: usize) {
    let mut start = 0;
    while start < rows {
        let n = LOAD_CHUNK.min(rows - start);
        engine
            .call_at(
                0,
                "load",
                vec![Value::Int(start as i64), Value::Int(n as i64)],
            )
            .expect("preload chunk");
        start += n;
    }
}

/// The stream's tuples and the naive fold they must produce.
struct UpdateStream {
    rng: StdRng,
    /// `v` by key — the preloaded rows, then the ring — `None` where the
    /// ring slot has not been written yet.
    v: Vec<Option<Option<i64>>>,
    preloaded: usize,
    ring: usize,
    replaced: usize,
    audit_rows: u64,
}

impl UpdateStream {
    fn new(seed: u64, preloaded: usize, ring: usize) -> Self {
        UpdateStream {
            rng: StdRng::seed_from_u64(seed ^ 0x6879_6272),
            v: (0..preloaded as i64)
                .map(|k| Some(event_fields(k).2))
                .chain(std::iter::repeat_n(None, ring))
                .collect(),
            preloaded,
            ring,
            replaced: 0,
            audit_rows: 0,
        }
    }

    /// Draws one batch and folds it into the expected state.
    fn next_batch(&mut self) -> Vec<Tuple> {
        (0..BATCH_TUPLES)
            .map(|_| {
                let v = self.rng.gen_range(0..1000i64);
                self.audit_rows += 1;
                if self.rng.gen_range(0..100u32) < INSERT_PERCENT {
                    let k = self.preloaded + self.replaced % self.ring;
                    self.replaced += 1;
                    self.v[k] = Some(Some(v));
                    tuple![1i64, k as i64, v]
                } else {
                    let k = self.rng.gen_range(0..self.preloaded);
                    self.v[k] = Some(Some(v));
                    tuple![0i64, k as i64, v]
                }
            })
            .collect()
    }

    /// What each analytic query must return, computed row by row.
    fn expected(&self, name: &str) -> Vec<Vec<Value>> {
        let rows = || {
            self.v
                .iter()
                .enumerate()
                .filter_map(|(k, v)| v.map(|v| (k as i64, v)))
        };
        let opt = |x: Option<i64>| x.map_or(Value::Null, Value::Int);
        match name {
            "filter_count" => {
                vec![vec![Value::Int(
                    rows().filter(|(_, v)| v.is_some_and(|v| v > 500)).count() as i64,
                )]]
            }
            "agg_filtered" => {
                let hits: Vec<i64> = rows()
                    .filter(|(k, _)| event_fields(*k).3.is_some_and(|f| f >= 100.0))
                    .filter_map(|(_, v)| v)
                    .collect();
                let sum = (!hits.is_empty()).then(|| hits.iter().sum());
                vec![vec![opt(sum), Value::Int(hits.len() as i64)]]
            }
            "group_by_100" => {
                let mut groups: std::collections::BTreeMap<i64, (i64, Option<i64>, Option<i64>)> =
                    Default::default();
                for (k, v) in rows() {
                    let g = groups.entry(event_fields(k).1).or_insert((0, None, None));
                    g.0 += 1;
                    if let Some(v) = v {
                        g.1 = Some(g.1.unwrap_or(0) + v);
                        g.2 = Some(g.2.map_or(v, |m: i64| m.min(v)));
                    }
                }
                groups
                    .into_iter()
                    .map(|(h, (n, sum, min))| {
                        vec![Value::Int(h), Value::Int(n), opt(sum), opt(min)]
                    })
                    .collect()
            }
            "topk" => {
                // ORDER BY v DESC, k: NULLs sort as the engine sorts
                // them; every non-NULL v outranks them and ten non-NULL
                // rows always exist, so NULL placement cannot matter.
                let mut all: Vec<(i64, i64)> =
                    rows().filter_map(|(k, v)| v.map(|v| (k, v))).collect();
                all.sort_by_key(|&(k, v)| (-v, k));
                all.truncate(10);
                all.into_iter()
                    .map(|(k, v)| vec![Value::Int(k), Value::Int(v)])
                    .collect()
            }
            other => unreachable!("unknown scan {other}"),
        }
    }
}

struct Instance {
    server: Server,
    engine: Arc<Engine>,
    writer: (SendHalf, RecvHalf),
    reader: (SendHalf, RecvHalf),
    point_stmt: u32,
}

fn roundtrip(
    conn: &mut (SendHalf, RecvHalf),
    req: &Request,
    op: u64,
    tr: &mut Tracer,
) -> Option<Response> {
    conn.0.send(req, op, tr).ok()?;
    conn.1.recv(op, tr).ok()
}

fn ingest_sync(
    conn: &mut (SendHalf, RecvHalf),
    rows: Vec<Tuple>,
    op: u64,
    tr: &mut Tracer,
) -> bool {
    let req = Request::Ingest {
        stream: "updates".into(),
        rows,
        sync: true,
    };
    matches!(roundtrip(conn, &req, op, tr), Some(Response::Batch { .. }))
}

fn set_up(rows: usize, warmup: &[Vec<Tuple>]) -> Instance {
    let engine = Engine::start(engine_config("hybrid_scan", 1), app()).expect("engine start");
    preload(&engine, rows);
    let engine = Arc::new(engine);
    let server = Server::start(engine.clone(), "127.0.0.1:0").expect("server start");
    let mut writer = wire::connect(server.local_addr(), "writer").expect("connect writer");
    let mut reader = wire::connect(server.local_addr(), "reader").expect("connect reader");
    let mut off = Tracer::off();
    let point_stmt = match roundtrip(
        &mut reader,
        &Request::Prepare {
            sql: POINT_SQL.into(),
        },
        0,
        &mut off,
    ) {
        Some(Response::Prepared { stmt }) => stmt,
        other => panic!("expected Prepared, got {other:?}"),
    };
    for b in warmup {
        assert!(
            ingest_sync(&mut writer, b.clone(), 0, &mut off),
            "warm-up batch"
        );
    }
    // Plan each scan once so the timed phase measures the cache-hit path.
    for (_, sql) in SCANS {
        let req = Request::Query {
            partition: 0,
            sql: sql.into(),
            params: vec![],
        };
        assert!(matches!(
            roundtrip(&mut reader, &req, 0, &mut off),
            Some(Response::Rows { .. })
        ));
    }
    Instance {
        server,
        engine,
        writer,
        reader,
        point_stmt,
    }
}

fn tear_down(mut inst: Instance) -> Engine {
    let mut off = Tracer::off();
    let _ = roundtrip(&mut inst.writer, &Request::Goodbye, 0, &mut off);
    let _ = roundtrip(&mut inst.reader, &Request::Goodbye, 0, &mut off);
    inst.server.stop();
    drop(inst.server);
    Arc::try_unwrap(inst.engine)
        .ok()
        .expect("server released the engine")
}

fn traced_slice(elapsed_s: f64) -> bool {
    ((elapsed_s / SLICE_S) as u64).is_multiple_of(2)
}

/// Tuples per second in each `SLICE_S` slice of the writer's
/// acknowledgement times, dropping the partial first and last slices.
fn slice_rates(ack_secs: &[f64], tuples_per_ack: usize, span_s: f64) -> Vec<f64> {
    let slices = (span_s / SLICE_S).floor() as usize;
    let mut counts = vec![0u64; slices.max(1)];
    for t in ack_secs {
        let i = (t / SLICE_S) as usize;
        if i < counts.len() {
            counts[i] += tuples_per_ack as u64;
        }
    }
    let inner = if counts.len() > 2 {
        &counts[1..counts.len() - 1]
    } else {
        &counts[..]
    };
    inner.iter().map(|c| *c as f64 / SLICE_S).collect()
}

pub fn run(args: &RunArgs) -> Report {
    let rows = args.scaled(PRELOAD_ROWS);
    let ring = args.scaled(RING_KEYS);
    let mut stream = UpdateStream::new(args.seed, rows, ring);
    let warmup: Vec<Vec<Tuple>> = (0..args.scaled(WARMUP_BATCHES))
        .map(|_| stream.next_batch())
        .collect();
    let mut report = Report::default();
    let (mut inst, setup_s, setups) = median_setup(
        args.setup_reps,
        || set_up(rows, &warmup),
        |i| discard(tear_down(i)),
    );
    drop(warmup);
    let rss_after_setup = crate::host::peak_rss_mb();
    let before = Counters::read(&inst.engine);
    let requests_before = inst.server.metrics().requests.load(Relaxed);

    let epoch = Instant::now();
    let cap = if args.trace { 200_000 } else { 0 };
    let mut tr_writer = Tracer::new(epoch, cap, args.trace);
    let mut tr_reader = Tracer::new(epoch, cap, args.trace);
    // At least one scan of each shape, however short the run.
    let reader_ops = args.count(READER_PER_S, SCANS.len() as u64 * SCAN_EVERY);
    let stop = AtomicBool::new(false);
    let mut point_rng = StdRng::seed_from_u64(args.seed ^ 0x706f_696e);
    let mut scans = PacedLog::with_capacity((reader_ops / SCAN_EVERY) as usize + 1);
    let mut points = PacedLog::with_capacity(reader_ops as usize);
    let mut by_shape: [Vec<f64>; SCANS.len()] = Default::default();
    let mut reader_failed = 0u64;
    let point_stmt = inst.point_stmt;
    let (writer_conn, reader_conn) = (&mut inst.writer, &mut inst.reader);
    let engine = inst.engine.clone();

    // One mixed phase: the writer runs for as long as the reader's
    // schedule lasts.
    let (acks, writer_failed, span_s, max_in_flight) = std::thread::scope(|s| {
        let (stop, stream, tr) = (&stop, &mut stream, &mut tr_writer);
        let writer = s.spawn(move || {
            let t0 = Instant::now();
            let (mut acks, mut failed, mut max_in_flight) = (Vec::new(), 0u64, 0usize);
            let mut op = 0;
            while !stop.load(Relaxed) {
                let rows = stream.next_batch();
                // Even slices traced, odd ones not: one run holds both
                // sides of the tracing-overhead comparison.
                tr.set_on(traced_slice(t0.elapsed().as_secs_f64()));
                if ingest_sync(writer_conn, rows, op, tr) {
                    acks.push(t0.elapsed().as_secs_f64());
                } else {
                    failed += 1;
                }
                max_in_flight = max_in_flight.max(engine.admitted_in_flight(0));
                op += 1;
            }
            (acks, failed, t0.elapsed().as_secs_f64(), max_in_flight)
        });
        let pacer = Pacer::start(READER_PER_S);
        for i in 0..reader_ops {
            let scan = i % SCAN_EVERY == SCAN_EVERY - 1;
            let req = if scan {
                let (_, sql) = SCANS[(i / SCAN_EVERY) as usize % SCANS.len()];
                Request::Query {
                    partition: 0,
                    sql: sql.into(),
                    params: vec![],
                }
            } else {
                let k = point_rng.gen_range(0..rows as i64);
                Request::Execute {
                    partition: 0,
                    stmt: point_stmt,
                    params: vec![Value::Int(k)],
                }
            };
            let slip = pacer.wait(i);
            tr_reader.set_on(traced_slice(pacer.now_ns() as f64 / 1e9));
            let resp = roundtrip(reader_conn, &req, i, &mut tr_reader);
            let us = pacer.schedule.latency_ns(i, pacer.now_ns()) as f64 / 1e3;
            let log = if scan { &mut scans } else { &mut points };
            log.slip_us.push(slip as f64 / 1e3);
            match resp {
                Some(Response::Rows { rows, .. }) if scan || rows.len() == 1 => {
                    log.latency_us.push(us);
                    if scan {
                        by_shape[(i / SCAN_EVERY) as usize % SCANS.len()].push(us);
                    }
                }
                _ => reader_failed += 1,
            }
            points
                .backlog_ops
                .push(slip as f64 / pacer.schedule.period_ns() as f64);
        }
        stop.store(true, Relaxed);
        writer.join().expect("writer thread")
    });
    inst.engine.drain().expect("drain");
    report.failed = reader_failed + writer_failed;
    report.attempted = reader_ops + acks.len() as u64 + writer_failed;

    let after = Counters::read(&inst.engine);
    let peak_rss = crate::host::peak_rss_mb();
    let mut rates = slice_rates(&acks, BATCH_TUPLES, span_s);
    // Slice 0 was dropped, so `rates[0]` is slice 1: untraced.
    let (mut untraced, mut traced): (Vec<f64>, Vec<f64>) = (
        rates.iter().step_by(2).copied().collect(),
        rates.iter().skip(1).step_by(2).copied().collect(),
    );
    let slices = rates.len() as u64;
    let throughput = stats::median(&mut rates);
    let (_, tail, max, n) = scans.summary(95.0);
    // The four shapes cost different amounts, so the median of the mixed
    // sample sits on the boundary between two of them and jumps with a
    // handful of samples; the mean of each shape's own median does not.
    let p50 = by_shape.iter_mut().map(|v| stats::median(v)).sum::<f64>() / SCANS.len() as f64;
    let (point_p50, point_tail, _, point_n) = points.summary(99.0);
    report.e2e = vec![
        ("setup_s", setup_s, setups),
        ("peak_rss_mb", peak_rss, 1),
        ("throughput_per_s", throughput, slices),
        ("latency_p50_us", p50, n),
        ("second_p50_us", point_p50, point_n),
    ];
    report.check(
        "backlog_not_growing",
        !backlog_growing(&points.backlog_ops, 16.0),
        "the reader was falling further behind its schedule when the phase ended",
    );

    let mut facts = PhaseFacts {
        latency_p50_us: p50,
        latency_tail_us: tail,
        latency_max_us: max,
        second_tail_us: point_tail,
        trace_overhead_frac: trace_overhead(&mut traced, &mut untraced),
        max_in_flight: max_in_flight as u64,
        server_requests: inst.server.metrics().requests.load(Relaxed) - requests_before,
        rss_growth_mb: peak_rss - rss_after_setup,
        ..PhaseFacts::default()
    };
    after.add_delta_since(&before, &mut facts.counters);
    facts.log_segments = log_segments_on_disk(inst.engine.config());
    report.note(format!(
        "generator lateness p99 {:.1} us",
        points.slip_p99_us()
    ));
    note_engine_histogram(&mut report, &inst.engine);

    // After both clients stop: every analytic query and the audit trail
    // must equal the fold of the ordered update stream.
    let engine = tear_down(inst);
    for (name, sql) in SCANS {
        let mut got: Vec<Vec<Value>> = engine
            .query(0, sql, vec![])
            .expect("analytic query")
            .rows
            .iter()
            .map(|r| r.values().to_vec())
            .collect();
        if name == "group_by_100" {
            got.sort_by_key(|r| r[0].as_int().unwrap_or(i64::MIN));
        }
        report.check_eq(
            name,
            format!("{got:?}"),
            format!("{:?}", stream.expected(name)),
        );
    }
    let audit = engine
        .query(0, "SELECT COUNT(*) FROM audit_log", vec![])
        .expect("audit count");
    report.check_eq(
        "audit_log_rows",
        audit.scalar().and_then(|v| v.as_int().ok()),
        Some(stream.audit_rows as i64),
    );
    let events = engine
        .query(0, "SELECT COUNT(*) FROM events", vec![])
        .expect("events count");
    report.check_eq(
        "events_rows",
        events.scalar().and_then(|v| v.as_int().ok()),
        Some(stream.v.iter().flatten().count() as i64),
    );
    report.check_eq("txns_aborted", after.txns_aborted, 0);

    if args.trace {
        // The stream simply continues: input the engine has not seen.
        let sample = layers::Sample::hybrid(
            (0..layers::SAMPLE_BATCHES)
                .map(|_| stream.next_batch())
                .collect(),
            rows,
        );
        let tracers = [("writer", &tr_writer), ("reader", &tr_reader)];
        report.layer = layers::ledger("hybrid_scan", &sample, &facts, engine, &tracers, args);
    } else {
        discard(engine);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_rate_ignores_partial_edge_slices() {
        // 10 acks per full slice for 2 s, then a stall in slice 2.
        let mut acks: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.05).collect();
        acks.retain(|t| !(1.0..1.5).contains(t));
        // Slices 1 and 2 of [0, 1, 2, 3]: ten acks, then none.
        assert_eq!(slice_rates(&acks, 100, 2.0), vec![2000.0, 0.0]);
    }

    #[test]
    fn expected_results_follow_the_stream() {
        let mut s = UpdateStream::new(3, 1000, 50);
        let before = s.expected("filter_count");
        for _ in 0..20 {
            s.next_batch();
        }
        assert_eq!(s.audit_rows, 2000);
        let live = s.v.iter().flatten().count();
        assert!(
            live > 1000 && live <= 1050,
            "the ring fills and then only replaces"
        );
        assert_ne!(s.expected("filter_count"), before);
        assert_eq!(s.expected("topk").len(), 10);
        assert_eq!(s.expected("group_by_100").len(), 100);
    }
}
