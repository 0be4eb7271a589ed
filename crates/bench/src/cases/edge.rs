//! `overload` and `server`: the admission edge under sustained offered
//! load above capacity, in process and over TCP.
//!
//! The client offers border batches on a *fixed schedule* (open loop —
//! arrivals do not wait for completions, unlike the closed-loop
//! figures), sweeping the offered rate from 0.5× to 10× of the capacity
//! a closed loop just measured. Under `Shed`, goodput must plateau and
//! the tail must stay bounded (in-flight work ≤ credits, so queues
//! cannot grow): past capacity, extra offered load turns into instant
//! rejections — wire code 11 over TCP — not queue growth. `overload`
//! drives the engine as a library and adds a `Block` phase and a mixed
//! Border + OLTP phase; `server` drives it the way production traffic
//! arrives — 64 sessions, frame encode → socket → session thread →
//! admission gate — and also checks what only a full server run can:
//! every admission credit is back after the sweep, and `Server::stop`
//! leaves no thread behind.
//!
//! Small-host caveat (EXPERIMENTS.md): clients and partition share the
//! cores, so the absolute capacity is low, the border transaction
//! carries 150 µs of artificial work to keep the open-loop intervals
//! schedulable, and over TCP the reject storm itself takes CPU from the
//! partition. The *shape* — plateau, bounded tail, clean teardown — is
//! the result.

use std::sync::Arc;
use std::time::Duration;

use sstore_common::{tuple, DataType, Error, Schema};
use sstore_engine::admission::TxnClass;
use sstore_engine::metrics::HistogramSnapshot;
use sstore_engine::{App, Engine, EngineConfig, OverloadPolicy};
use sstore_server::protocol::{Request, Response};
use sstore_server::server::threads_named;
use sstore_server::{Client, Server};

use crate::{open_loop_phase, run_for, DataDir, Params, Phase, Report};

/// Admission credits per partition for every phase: small enough that
/// 10× over-capacity visibly sheds, large enough to keep the pipe full.
const CREDITS: usize = 64;

/// Artificial per-border-transaction work (µs), so capacity is a few
/// thousand batches/s and open-loop intervals stay schedulable.
const WORK_US: u64 = 150;

const CONNECTIONS: usize = 64;

/// Offered load, as multiples of measured capacity.
const SWEEP: [f64; 5] = [0.5, 1.0, 2.0, 5.0, 10.0];

fn app() -> App {
    App::builder()
        .stream("reqs", Schema::of(&[("v", DataType::Int)]))
        .table("requests", Schema::of(&[("v", DataType::Int)]))
        .table("totals", Schema::of(&[("n", DataType::Int)]))
        .proc(
            "absorb",
            &[
                ("ins", "INSERT INTO requests (v) VALUES (?)"),
                ("bump", "UPDATE totals SET n = n + 1"),
            ],
            &[],
            |ctx| {
                std::thread::sleep(Duration::from_micros(WORK_US));
                for r in ctx.input().to_vec() {
                    ctx.sql("ins", &[r.get(0).clone()])?;
                    ctx.sql("bump", &[])?;
                }
                Ok(())
            },
        )
        .proc("seed", &[("init", "INSERT INTO totals (n) VALUES (0)")], &[], |ctx| {
            ctx.sql("init", &[])?;
            Ok(())
        })
        .proc("peek", &[("n", "SELECT n FROM totals")], &[], |ctx| {
            let r = ctx.sql("n", &[])?;
            ctx.set_result(r);
            Ok(())
        })
        .pe_trigger("reqs", "absorb")
        .build()
        .expect("edge bench app is valid")
}

fn engine_with(policy: OverloadPolicy, dir: &DataDir) -> Engine {
    let config = EngineConfig::default()
        .with_data_dir(dir.fresh("edge"))
        .with_admission_credits(CREDITS)
        .with_overload(policy);
    let engine = crate::start(config, app());
    engine.call("seed", vec![]).expect("seed totals");
    engine
}

/// What the engine can commit, batches/sec: one-tuple batches through
/// the burst loop, which keeps the partition's queue full. Both sweeps
/// offer multiples of this. (A synchronous client — in process or one
/// TCP session — measures its own hand-off latency instead: 2 600 to
/// 4 300 batches/s on one host, by which core its thread lands on.)
fn engine_capacity(engine: &Engine, secs: f64) -> f64 {
    let mut n = 0i64;
    let next = || {
        n += 1;
        vec![tuple![n]]
    };
    run_for(engine, "reqs", next, secs)
}

/// In-process submission: admitted, or shed by the admission edge.
fn ingest(engine: &Engine) -> impl FnMut(u64) -> bool + '_ {
    |n| match engine.ingest("reqs", vec![tuple![n as i64]]) {
        Ok(_) => true,
        Err(Error::Overloaded(_)) => false,
        Err(e) => panic!("ingest failed: {e}"),
    }
}

/// The rows of one phase, named `{prefix}_…`.
fn phase_rows(report: &mut Report, prefix: &str, p: &Phase) {
    report.row(format!("{prefix}_offered_bps"), p.offered_bps, "batches/s");
    report.row(format!("{prefix}_shed"), p.shed as f64, "count");
    report.row(format!("{prefix}_goodput_bps"), p.goodput_bps, "batches/s");
    report.row(format!("{prefix}_max_in_flight"), p.max_in_flight as f64, "count");
    report.row(format!("{prefix}_rtt_p50_us"), p.rtt_us[0], "us");
    report.row(format!("{prefix}_rtt_p99_us"), p.rtt_us[1], "us");
    latency_rows(report, &format!("{prefix}_e2e"), &p.border.end_to_end);
}

fn latency_rows(report: &mut Report, prefix: &str, h: &HistogramSnapshot) {
    for (q, d) in [("p50", h.p50), ("p95", h.p95), ("p99", h.p99)] {
        report.row(format!("{prefix}_{q}_us"), d.as_secs_f64() * 1e6, "us");
    }
}

/// What both sweeps report besides their phases: the capacity they
/// over-drove, the credits, the time a full window of credits takes to
/// serve at that capacity, and the most credits ever seen in flight.
fn summary_rows(report: &mut Report, capacity: f64, phases: &[&Phase]) {
    report.row("capacity_bps", capacity, "batches/s");
    report.row("credits", CREDITS as f64, "count");
    report.row("credit_window_us", CREDITS as f64 / capacity * 1e6, "us");
    let max = phases.iter().map(|p| p.max_in_flight).max().unwrap_or(0);
    report.row("max_in_flight", max as f64, "count");
}

/// The in-process sweep, `--secs` (default 1) per phase.
pub fn overload(p: &Params, dir: &DataDir) -> Report {
    let secs = p.secs_or(1.0);
    let mut report = Report::new("overload", &[("secs", secs), ("border_work_us", WORK_US as f64)]);

    let engine = engine_with(OverloadPolicy::default(), dir);
    let capacity = engine_capacity(&engine, secs);
    engine.shutdown();

    // Shed sweep on one engine (credits persist, metrics reset per phase).
    let engine = engine_with(OverloadPolicy::Shed, dir);
    let sweep: Vec<Phase> = SWEEP
        .iter()
        .map(|x| open_loop_phase(&engine, 1, capacity * x, secs, |_| ingest(&engine)))
        .collect();

    // Mixed phase at 2×: one synchronous OLTP read per 10 batches (also
    // admitted), for the per-class histograms.
    let mixed = open_loop_phase(&engine, 1, capacity * 2.0, secs, |_| {
        let mut submit = ingest(&engine);
        let engine = &engine;
        move |n| {
            let admitted = submit(n);
            if n % 10 == 0 {
                let _ = engine.call("peek", vec![]);
            }
            admitted
        }
    });
    let oltp = engine.metrics().class_latency(TxnClass::Oltp);
    engine.shutdown();

    // Block at 10×: the open loop degenerates to self-clocked sending
    // (ingest parks), and in-flight work stays ≤ credits.
    let engine = engine_with(OverloadPolicy::Block { timeout: Duration::from_secs(30) }, dir);
    let block = open_loop_phase(&engine, 1, capacity * 10.0, secs, |_| ingest(&engine));
    engine.shutdown();

    let phases: Vec<&Phase> = sweep.iter().chain([&block]).collect();
    summary_rows(&mut report, capacity, &phases);
    for (x, phase) in SWEEP.iter().zip(&sweep) {
        phase_rows(&mut report, &format!("x{x}"), phase);
    }
    let peak = sweep.iter().map(|p| p.goodput_bps).fold(0.0, f64::max);
    report.row("peak_goodput_bps", peak, "batches/s");
    report.row("shed_total", sweep.iter().map(|p| p.shed).sum::<u64>() as f64, "count");
    phase_rows(&mut report, "block_x10", &block);
    for (class, c) in [("border", mixed.border), ("oltp", oltp)] {
        report.row(format!("mixed_{class}_count"), c.end_to_end.count as f64, "count");
        latency_rows(&mut report, &format!("mixed_{class}_queue_wait"), &c.queue_wait);
        latency_rows(&mut report, &format!("mixed_{class}_execution"), &c.execution);
        latency_rows(&mut report, &format!("mixed_{class}_e2e"), &c.end_to_end);
    }
    report
}

/// One TCP session's submission: an asynchronous ingest, answered by a
/// batch id or by the shed wire code.
fn session(addr: std::net::SocketAddr, conn: usize) -> impl FnMut(u64) -> bool {
    let mut c = Client::connect(addr, "load").expect("connect");
    move |n| {
        let rows = vec![tuple![(conn as i64) << 32 | n as i64]];
        c.send(&Request::Ingest { stream: "reqs".into(), rows, sync: false }).expect("send");
        match c.recv().expect("recv") {
            Response::Batch { .. } => true,
            Response::Error { code, .. } if code == Error::SHED_WIRE_CODE => false,
            other => panic!("unexpected response {other:?}"),
        }
    }
}

/// The sweep over TCP, `--secs` (default 1) per phase.
pub fn server(p: &Params, dir: &DataDir) -> Report {
    let secs = p.secs_or(1.0);
    let mut report = Report::new(
        "server",
        &[("secs", secs), ("connections", CONNECTIONS as f64), ("border_work_us", WORK_US as f64)],
    );
    let engine = Arc::new(engine_with(OverloadPolicy::Shed, dir));
    let mut srv = Server::start(engine.clone(), "127.0.0.1:0").expect("server start");
    let addr = srv.local_addr();

    let capacity = engine_capacity(&engine, secs);
    let sweep: Vec<Phase> = SWEEP
        .iter()
        .map(|x| {
            open_loop_phase(&engine, CONNECTIONS, capacity * x, secs, |conn| session(addr, conn))
        })
        .collect();

    // Every credit home after the sweep: no session leaked one.
    let credits_clean = (0..engine.partitions())
        .all(|p| engine.admission_available(p) == CREDITS && engine.admitted_in_flight(p) == 0);
    let sessions = srv.metrics().connections.load(std::sync::atomic::Ordering::Relaxed);

    // Clean shutdown with live sessions: stop joins everything; the
    // thread census proves nothing survived.
    let holdouts: Vec<Client> =
        (0..8).map(|i| Client::connect(addr, &format!("hold{i}")).expect("connect")).collect();
    let prefix = srv.thread_prefix().to_owned();
    srv.stop();
    drop(holdouts);
    let left = threads_named(&prefix);

    summary_rows(&mut report, capacity, &sweep.iter().collect::<Vec<_>>());
    for (x, phase) in SWEEP.iter().zip(&sweep) {
        phase_rows(&mut report, &format!("x{x}"), phase);
    }
    report.row("sessions_served", sessions as f64, "count");
    report.check(
        "every admission credit returned",
        credits_clean,
        format!("{CREDITS} credits per partition"),
    );
    report.check(
        "stop() leaves no server thread",
        left == 0,
        format!("{left} threads named {prefix}*"),
    );
    report
}
