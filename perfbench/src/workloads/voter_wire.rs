//! `voter_wire`: the leaderboard application behind the TCP edge, one
//! vote per batch — the workload where per-batch overhead (frame codec,
//! session loop, admission credit, partition hop, scheduler, three
//! PE-triggered transactions, one log record each) does nearly all the
//! work and scans and windows do little.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

use sstore_common::Value;
use sstore_engine::Engine;
use sstore_server::protocol::{Request, Response};
use sstore_server::Server;
use sstore_workloads::gen::Vote;
use sstore_workloads::voter;

use super::voter_input::{self, CONTESTANTS, WARMUP_VOTES};
use super::{
    discard, engine_config, latency_summary, log_segments_on_disk, median_setup,
    note_engine_histogram, trace_overhead, Counters, PhaseFacts, Report, RunArgs,
};
use crate::layers;
use crate::stats;
use crate::trace::Tracer;
use crate::wire::{self, RecvHalf, SendHalf};

/// Rounds per nominal second. A round is one saturation burst and then
/// one stretch of synchronous operations, about 0.4 s together on the
/// 2-core reference host; frozen here so that run length is the
/// benchmark's and not the host's. Alternating the two all the way
/// through makes both sample the whole run, so a slow minute on the
/// host lands on both and on every run alike.
const ROUNDS_PER_S: f64 = 2.2;
/// One saturation burst: pipelined, then drained, timed as a whole. The
/// run reports the median burst, which a single hiccup cannot move.
const BURST_VOTES: usize = 2_000;
/// Unacknowledged pipelined requests allowed.
const WINDOW: usize = 256;
/// Synchronous operations in one stretch, sent back to back by one
/// client that waits for each reply (a closed loop of one).
const STRETCH_OPS: usize = 1_450;
/// Every this-many synchronous operations is a leaderboard read.
const READ_EVERY: usize = 25;

const READ_SQL: &str =
    "SELECT contestant, cnt FROM leaderboard WHERE kind = 'top' ORDER BY cnt DESC, contestant";

struct Instance {
    server: Server,
    engine: Arc<Engine>,
    tx: SendHalf,
    rx: RecvHalf,
    read_stmt: u32,
}

fn ingest(v: &Vote, sync: bool) -> Request {
    Request::Ingest {
        stream: "votes_in".into(),
        rows: vec![v.tuple()],
        sync,
    }
}

struct BurstOutcome {
    secs: f64,
    failed: u64,
    max_in_flight: u64,
}

/// Sends `votes` pipelined (at most `WINDOW` unacknowledged), collects
/// every acknowledgement on a second thread, then waits for the engine
/// to drain; the clock covers all of it.
fn burst(
    inst: &mut Instance,
    votes: &[Vote],
    op0: u64,
    trs: &mut (Tracer, Tracer),
) -> BurstOutcome {
    let (tokens_tx, tokens_rx) = sync_channel::<()>(WINDOW);
    let engine = inst.engine.clone();
    let (tx, rx) = (&mut inst.tx, &mut inst.rx);
    let (tr_send, tr_recv) = (&mut trs.0, &mut trs.1);
    let n = votes.len() as u64;
    let t0 = Instant::now();
    let (failed, max_in_flight) = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let (mut failed, mut max_in_flight) = (0u64, 0usize);
            for i in 0..n {
                match rx.recv(op0 + i, tr_recv) {
                    Ok(Response::Batch { .. }) => {}
                    _ => failed += 1,
                }
                max_in_flight = max_in_flight.max(engine.admitted_in_flight(0));
                let _ = tokens_rx.recv();
            }
            (failed, max_in_flight as u64)
        });
        for (i, v) in votes.iter().enumerate() {
            tokens_tx.send(()).expect("receiver alive");
            tx.send(&ingest(v, false), op0 + i as u64, tr_send)
                .expect("send vote");
        }
        receiver.join().expect("receiver thread")
    });
    let s = trs.0.begin("drain", op0);
    inst.engine.drain().expect("drain");
    trs.0.end(s);
    BurstOutcome {
        secs: t0.elapsed().as_secs_f64(),
        failed,
        max_in_flight,
    }
}

fn set_up(warmup: &[Vote]) -> Instance {
    let engine = Engine::start(engine_config("voter_wire", 1), voter::leaderboard_app(true))
        .expect("engine start");
    voter::seed(&engine, CONTESTANTS).expect("seed contestants");
    let engine = Arc::new(engine);
    let server = Server::start(engine.clone(), "127.0.0.1:0").expect("server start");
    let (tx, rx) = wire::connect(server.local_addr(), "bench").expect("connect");
    let mut inst = Instance {
        server,
        engine,
        tx,
        rx,
        read_stmt: 0,
    };
    let mut off = Tracer::off();
    inst.tx
        .send(
            &Request::Prepare {
                sql: READ_SQL.into(),
            },
            0,
            &mut off,
        )
        .expect("prepare");
    inst.read_stmt = match inst.rx.recv(0, &mut off).expect("prepared") {
        Response::Prepared { stmt } => stmt,
        other => panic!("expected Prepared, got {other:?}"),
    };
    let out = burst(&mut inst, warmup, 0, &mut (Tracer::off(), Tracer::off()));
    assert_eq!(out.failed, 0, "warm-up votes must all be accepted");
    inst
}

fn tear_down(mut inst: Instance) -> Engine {
    let mut off = Tracer::off();
    let _ = inst.tx.send(&Request::Goodbye, 0, &mut off);
    let _ = inst.rx.recv(0, &mut off);
    inst.server.stop();
    drop(inst.server);
    Arc::try_unwrap(inst.engine)
        .ok()
        .expect("server released the engine")
}

#[derive(Default)]
struct Stretches {
    vote_us: Vec<f64>,
    read_us: Vec<f64>,
    failed: u64,
    max_in_flight: u64,
}

/// One stretch of the closed loop: send, block for the reply, send the
/// next. Client, session and partition thread hand each operation round
/// in turn and none of them sleeps for longer than one hand-over, which
/// is what keeps the figure the same from run to run: on this guest a
/// vCPU left idle for a fraction of a millisecond halts, waking it costs
/// 5 µs or 50 by the host's mood, and an open-loop schedule with idle
/// gaps (or a client busy-waiting next to three server-side threads on
/// two cores) measured that mood — medians 85 to 130 µs for one commit.
fn stretch(inst: &mut Instance, votes: &[Vote], op0: u64, tr: &mut Tracer, out: &mut Stretches) {
    let mut next_vote = votes.iter();
    let ops = votes.len() + votes.len() / (READ_EVERY - 1);
    for i in 0..ops {
        let read = i % READ_EVERY == READ_EVERY - 1;
        let req = if read {
            Request::Execute {
                partition: 0,
                stmt: inst.read_stmt,
                params: Vec::<Value>::new(),
            }
        } else {
            ingest(next_vote.next().expect("one vote per non-read op"), true)
        };
        let id = op0 + i as u64;
        let t0 = Instant::now();
        inst.tx.send(&req, id, tr).expect("send sync op");
        out.max_in_flight = out
            .max_in_flight
            .max(inst.engine.admitted_in_flight(0) as u64);
        let resp = inst.rx.recv(id, tr);
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        match (read, resp) {
            (false, Ok(Response::Batch { .. })) => out.vote_us.push(us),
            (true, Ok(Response::Rows { rows, .. })) if rows.len() <= 3 => out.read_us.push(us),
            _ => out.failed += 1,
        }
    }
}

pub fn run(args: &RunArgs) -> Report {
    let (warm, burst_votes) = (args.scaled(WARMUP_VOTES), args.scaled(BURST_VOTES));
    let rounds = args.count(ROUNDS_PER_S, 2) as usize;
    let stretch_ops = (args.scaled(STRETCH_OPS) / READ_EVERY).max(1) * READ_EVERY;
    let stretch_votes = stretch_ops - stretch_ops / READ_EVERY;
    let total = warm + rounds * (burst_votes + stretch_votes);
    let (votes, model) = voter_input::generate(args.seed, total, 1, layers::SAMPLE_BATCHES);
    let (warmup, rest) = votes[..total].split_at(warm);

    let mut report = Report::default();
    let (mut inst, setup_s, setups) = median_setup(
        args.setup_reps,
        || set_up(warmup),
        |i| discard(tear_down(i)),
    );
    let rss_after_setup = crate::host::peak_rss_mb();
    let before = Counters::read(&inst.engine);
    let requests_before = inst.server.metrics().requests.load(Relaxed);

    // Every other burst untraced when tracing, so one run yields both
    // sides of the tracing-overhead comparison.
    let epoch = Instant::now();
    let cap = if args.trace { 600_000 } else { 0 };
    let mut trs = (
        Tracer::new(epoch, cap, args.trace),
        Tracer::new(epoch, cap, args.trace),
    );
    let (mut rates, mut rates_untraced) = (Vec::new(), Vec::new());
    let mut max_in_flight = 0;
    let mut op = warm as u64;
    let mut sync = Stretches::default();
    for (b, round) in rest.chunks(burst_votes + stretch_votes).enumerate() {
        let (chunk, sync_votes) = round.split_at(burst_votes);
        let traced = args.trace && b % 2 == 0;
        trs.0.set_on(traced);
        trs.1.set_on(traced);
        let out = burst(&mut inst, chunk, op, &mut trs);
        op += chunk.len() as u64;
        report.failed += out.failed;
        max_in_flight = max_in_flight.max(out.max_in_flight);
        let rate = chunk.len() as f64 / out.secs;
        if args.trace && !traced {
            rates_untraced.push(rate);
        } else {
            rates.push(rate);
        }
        trs.0.set_on(args.trace);
        {
            let _one_cpu = crate::host::OneCpu::confine();
            stretch(&mut inst, sync_votes, op, &mut trs.0, &mut sync);
        }
        op += stretch_ops as u64;
    }
    inst.engine.drain().expect("drain after the last round");
    report.failed += sync.failed;
    report.attempted = op - warm as u64;

    let after = Counters::read(&inst.engine);
    let peak_rss = crate::host::peak_rss_mb();
    let throughput = stats::median(&mut rates);
    let (p50, tail, max, n) = latency_summary(&mut sync.vote_us, 99.0);
    let (read_p50, read_tail, _, read_n) = latency_summary(&mut sync.read_us, 99.0);
    report.e2e = vec![
        ("setup_s", setup_s, setups),
        ("peak_rss_mb", peak_rss, 1),
        ("throughput_per_s", throughput, rates.len() as u64),
        ("latency_p50_us", p50, n),
        ("second_p50_us", read_p50, read_n),
    ];

    let mut facts = PhaseFacts {
        latency_p50_us: p50,
        latency_tail_us: tail,
        latency_max_us: max,
        second_tail_us: read_tail,
        trace_overhead_frac: trace_overhead(&mut rates, &mut rates_untraced),
        max_in_flight: max_in_flight.max(sync.max_in_flight),
        server_requests: inst.server.metrics().requests.load(Relaxed) - requests_before,
        rss_growth_mb: peak_rss - rss_after_setup,
        ..PhaseFacts::default()
    };
    after.add_delta_since(&before, &mut facts.counters);
    facts.log_segments = log_segments_on_disk(inst.engine.config());
    note_engine_histogram(&mut report, &inst.engine);

    let engine = tear_down(inst);
    voter_input::check(&mut report, &engine, &model, total as u64);
    report.check_eq("txns_aborted", after.txns_aborted, 0);

    if args.trace {
        let sample =
            layers::Sample::voter_wire(votes[total..].iter().map(|v| vec![v.tuple()]).collect());
        let tracers = [("sender", &trs.0), ("receiver", &trs.1)];
        report.layer = layers::ledger("voter_wire", &sample, &facts, engine, &tracers, args);
    } else {
        discard(engine);
    }
    report
}
