//! End-to-end tests through a real TCP socket: sessions multiplexed
//! onto one engine, per-session ordering, per-tenant accounting,
//! wire-code error identity, prepared-statement scoping, disconnect
//! hygiene (no leaked admission credits), and whole-server shutdown
//! (no leaked threads or sockets).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sstore_common::{DataType, Error, Schema, Tuple, Value};
use sstore_engine::{App, Engine, EngineConfig, OverloadPolicy};
use sstore_server::protocol::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};
use sstore_server::{Client, Server};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn test_dir(tag: &str) -> std::path::PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "sstore-server-test-{}-{tag}-{seq}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Streaming + OLTP app: `reqs` → absorb (optionally slowed per batch
/// via `work_us`) into `requests`, plus a `note` OLTP proc.
fn app(work_us: u64) -> App {
    App::builder()
        .stream("reqs", Schema::of(&[("v", DataType::Int)]))
        .table("requests", Schema::of(&[("v", DataType::Int)]))
        .table("events", Schema::of(&[("id", DataType::Int), ("note", DataType::Text)]))
        .proc(
            "absorb",
            &[("ins", "INSERT INTO requests (v) VALUES (?)")],
            &[],
            move |ctx| {
                if work_us > 0 {
                    std::thread::sleep(Duration::from_micros(work_us));
                }
                for r in ctx.input().to_vec() {
                    ctx.sql("ins", &[r.get(0).clone()])?;
                }
                Ok(())
            },
        )
        .proc(
            "note",
            &[("ins", "INSERT INTO events (id, note) VALUES (?, ?)")],
            &[],
            |ctx| {
                let params = ctx.params().to_vec();
                let r = ctx.sql("ins", &params)?;
                ctx.set_result(r);
                Ok(())
            },
        )
        .pe_trigger("reqs", "absorb")
        .build()
        .expect("test app is valid")
}

fn server(tag: &str, partitions: usize, credits: usize, policy: OverloadPolicy, work_us: u64) -> Server {
    let config = EngineConfig::default()
        .with_data_dir(test_dir(tag))
        .with_partitions(partitions)
        .with_admission_credits(credits)
        .with_overload(policy);
    let engine = Engine::start(config, app(work_us)).expect("engine start");
    Server::start(Arc::new(engine), "127.0.0.1:0").expect("server start")
}

fn block() -> OverloadPolicy {
    OverloadPolicy::Block { timeout: Duration::from_secs(10) }
}

#[test]
fn handshake_query_call_prepare_roundtrip() {
    let srv = server("basic", 2, 64, block(), 0);
    let mut c = Client::connect(srv.local_addr(), "acme").expect("connect");
    assert_eq!(c.partitions(), 2);

    // OLTP call with a result.
    let (_, _, affected) =
        c.call_at(0, "note", vec![Value::Int(1), Value::Text("hi".into())]).expect("call");
    assert_eq!(affected, 1);

    // Ad-hoc SQL sees the committed write.
    let (cols, rows, _) =
        c.query_at(0, "SELECT id, note FROM events", vec![]).expect("query");
    assert_eq!(cols, vec!["id".to_owned(), "note".to_owned()]);
    assert_eq!(rows, vec![Tuple::new(vec![Value::Int(1), Value::Text("hi".into())])]);

    // Prepared: plan once, execute twice with different params.
    let stmt = c.prepare("SELECT id FROM events WHERE id = ?").expect("prepare");
    let (_, rows, _) = c.execute(0, stmt, vec![Value::Int(1)]).expect("execute");
    assert_eq!(rows.len(), 1);
    let (_, rows, _) = c.execute(0, stmt, vec![Value::Int(999)]).expect("execute");
    assert!(rows.is_empty());

    assert_eq!(c.ping(42).expect("ping"), 42);
    c.goodbye().expect("orderly close");
}

#[test]
fn pipelined_requests_come_back_in_order() {
    let srv = server("pipeline", 1, 64, block(), 0);
    let mut c = Client::connect(srv.local_addr(), "pipeliner").expect("connect");
    // Fire a burst of pings without reading, then collect: responses
    // must arrive in request order (per-session ordering).
    const N: u64 = 100;
    for i in 0..N {
        c.send(&Request::Ping { token: i }).expect("send");
    }
    for i in 0..N {
        match c.recv().expect("recv") {
            Response::Pong { token } => assert_eq!(token, i, "response out of order"),
            other => panic!("expected Pong, got {other:?}"),
        }
    }
    // Same through the engine: pipelined sync ingests answer in order
    // with strictly increasing batch ids.
    for i in 0..10 {
        c.send(&Request::Ingest {
            stream: "reqs".into(),
            rows: vec![Tuple::new(vec![Value::Int(i)])],
            sync: true,
        })
        .expect("send ingest");
    }
    let mut last = 0;
    for _ in 0..10 {
        match c.recv().expect("recv") {
            Response::Batch { batch } => {
                assert!(batch > last, "batch ids must increase: {batch} after {last}");
                last = batch;
            }
            other => panic!("expected Batch, got {other:?}"),
        }
    }
}

#[test]
fn multi_session_totals_match_engine() {
    const SESSIONS: usize = 8;
    const REQUESTS: i64 = 25;
    let srv = server("multi", 2, 64, block(), 0);
    let addr = srv.local_addr();
    std::thread::scope(|s| {
        for t in 0..SESSIONS {
            s.spawn(move || {
                let mut c =
                    Client::connect(addr, &format!("tenant{t}")).expect("connect");
                for i in 0..REQUESTS {
                    let v = t as i64 * 1000 + i;
                    c.ingest_sync("reqs", vec![Tuple::new(vec![Value::Int(v)])])
                        .expect("sync ingest");
                }
                c.goodbye().expect("goodbye");
            });
        }
    });
    let engine = srv.engine();
    engine.drain().expect("drain");
    // Every row all sessions pushed must be in the table.
    let expected = (SESSIONS as i64) * REQUESTS;
    let mut total = 0i64;
    for p in 0..engine.partitions() {
        let r = engine.query(p, "SELECT v FROM requests", vec![]).expect("count");
        total += r.rows.len() as i64;
    }
    assert_eq!(total, expected, "engine must hold every ingested row");
    // And the edge accounted every request to its tenant.
    let m = srv.metrics();
    assert_eq!(m.tenant_names().len(), SESSIONS);
    for t in 0..SESSIONS {
        let stats = m.tenant(&format!("tenant{t}"));
        // REQUESTS ingests + 1 goodbye per session.
        assert_eq!(
            stats.ok.load(Ordering::Relaxed),
            REQUESTS as u64 + 1,
            "tenant{t} request accounting"
        );
        assert_eq!(stats.errors.load(Ordering::Relaxed), 0);
        assert_eq!(stats.e2e.count(), REQUESTS as u64 + 1);
    }
}

#[test]
fn disconnect_mid_sync_ingest_leaks_no_credits() {
    const CREDITS: usize = 4;
    const PARTITIONS: usize = 2;
    // Slow absorb (5ms per batch) so disconnects land mid-request.
    let srv = server("disconnect", PARTITIONS, CREDITS, block(), 5_000);
    let addr = srv.local_addr();
    // Waves of clients that fire a sync ingest and vanish without
    // reading the response — the rudest client behavior there is.
    for wave in 0..3 {
        let mut clients = Vec::new();
        for i in 0..8i64 {
            let mut c = Client::connect(addr, "rude").expect("connect");
            c.send(&Request::Ingest {
                stream: "reqs".into(),
                rows: vec![Tuple::new(vec![Value::Int(wave * 100 + i)])],
                sync: true,
            })
            .expect("send");
            clients.push(c);
        }
        drop(clients); // all 8 disconnect, most mid-request
    }
    // The engine finishes the admitted work; every credit must come
    // home — a leak here would strangle the gate forever.
    let engine = srv.engine();
    engine.drain().expect("drain");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let free: Vec<usize> =
            (0..PARTITIONS).map(|p| engine.admission_available(p)).collect();
        if free.iter().all(|&f| f == CREDITS) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "admission credits leaked by disconnected sessions: \
             available={free:?}, expected {CREDITS} everywhere"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    for p in 0..PARTITIONS {
        assert_eq!(engine.admitted_in_flight(p), 0);
    }
}

#[test]
fn prepared_statements_are_session_scoped() {
    let srv = server("prepared", 1, 64, block(), 0);
    let mut a = Client::connect(srv.local_addr(), "a").expect("connect a");
    let mut b = Client::connect(srv.local_addr(), "b").expect("connect b");
    let stmt = a.prepare("SELECT id FROM events WHERE id = ?").expect("prepare");
    // Session B must not see session A's statement table.
    let err = b.execute(0, stmt, vec![Value::Int(1)]).expect_err("foreign stmt id");
    assert_eq!(err.wire_code(), Error::not_found("x", "y").wire_code(), "NotFound on the wire");
    // A's statement still works after B's failed probe.
    a.execute(0, stmt, vec![Value::Int(1)]).expect("own stmt fine");
}

#[test]
fn wire_codes_distinguish_backoff_from_failfast() {
    // Shed policy + 1 credit + slow work: overload is easy to provoke.
    let srv = server("shed", 1, 1, OverloadPolicy::Shed, 20_000);
    let mut c = Client::connect(srv.local_addr(), "flood").expect("connect");
    // Fail-fast identity: unknown procedure is NotFound (code 1), not
    // a back-off signal.
    let err = c.call_at(0, "no_such_proc", vec![]).expect_err("unknown proc");
    assert_eq!(err.wire_code(), 1);
    assert!(!err.is_backoff());
    // Unknown partition as well.
    let err = c.query_at(9, "SELECT 1", vec![]).expect_err("bad partition");
    assert_eq!(err.wire_code(), 1);
    // Flood async ingests until the gate sheds: the error that comes
    // back must carry the Overloaded wire code — the client's signal
    // to back off rather than give up.
    let mut shed = None;
    for i in 0..200 {
        match c.ingest("reqs", vec![Tuple::new(vec![Value::Int(i)])]) {
            Ok(_) => {}
            Err(e) => {
                shed = Some(e);
                break;
            }
        }
    }
    let e = shed.expect("1-credit shed gate must reject a 200-deep flood");
    assert_eq!(e.wire_code(), Error::SHED_WIRE_CODE);
    assert!(e.is_backoff(), "Overloaded must reconstruct as back-off across the wire");
    // The shed was accounted to the tenant at the edge.
    let entries = c.metrics().expect("metrics");
    let shed_count = entries
        .iter()
        .find(|(k, _)| k == "tenant.flood.shed")
        .map(|(_, v)| *v)
        .expect("tenant shed counter present");
    assert!(shed_count >= 1);
}

#[test]
fn protocol_violations_are_loud_then_fatal() {
    let srv = server("violate", 1, 8, block(), 0);
    let addr = srv.local_addr();

    // Wrong protocol version: refused at handshake with InvalidState.
    {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut w = stream.try_clone().expect("clone");
        write_frame(&mut w, &Request::Hello { version: 999, tenant: "v".into() }.encode())
            .expect("send bad hello");
        let mut r = stream;
        match read_frame(&mut r).expect("error frame").map(|p| Response::decode(&p)) {
            Some(Ok(Response::Error { code, .. })) => assert_eq!(code, 10),
            other => panic!("expected InvalidState error frame, got {other:?}"),
        }
        // ...and then the server hangs up.
        assert!(matches!(read_frame(&mut r), Ok(None) | Err(_)));
    }

    // First request not Hello: same treatment.
    {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut w = stream.try_clone().expect("clone");
        write_frame(&mut w, &Request::Ping { token: 1 }.encode()).expect("send");
        let mut r = stream;
        match read_frame(&mut r).expect("error frame").map(|p| Response::decode(&p)) {
            Some(Ok(Response::Error { code, .. })) => assert_eq!(code, 10),
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    // Garbage after a good handshake: codec error response, then close.
    {
        let mut c = Client::connect(addr, "g").expect("connect");
        assert_eq!(c.ping(5).expect("ping"), 5);
        // Reach under the client abstraction to send a malformed frame.
        let stream = std::net::TcpStream::connect(addr).expect("connect2");
        let mut w = stream.try_clone().expect("clone");
        write_frame(&mut w, &Request::Hello { version: PROTOCOL_VERSION, tenant: String::new() }.encode())
            .expect("hello");
        let mut r = stream;
        let welcome = read_frame(&mut r).expect("welcome").expect("frame");
        assert!(matches!(Response::decode(&welcome), Ok(Response::Welcome { .. })));
        write_frame(&mut w, &[0xFF, 0xEE, 0xDD]).expect("garbage frame");
        match read_frame(&mut r).expect("error frame").map(|p| Response::decode(&p)) {
            Some(Ok(Response::Error { code, .. })) => assert_eq!(code, 12, "codec error"),
            other => panic!("expected codec error frame, got {other:?}"),
        }
        assert!(matches!(read_frame(&mut r), Ok(None) | Err(_)), "stream must close");
    }

    let violations = srv.metrics().protocol_errors.load(Ordering::Relaxed);
    assert!(violations >= 3, "3 violations staged, counted {violations}");
}

#[test]
fn stop_with_live_sessions_leaks_no_threads_or_sockets() {
    let mut srv = server("stop", 1, 8, block(), 0);
    let addr = srv.local_addr();
    // Park 8 idle sessions (blocked in read) plus one mid-pipeline.
    let mut clients: Vec<Client> = (0..8)
        .map(|i| Client::connect(addr, &format!("idle{i}")).expect("connect"))
        .collect();
    assert!(clients.iter_mut().all(|c| c.ping(1).is_ok()));
    // stop() must force-close every blocked session and join every
    // thread — if it leaks one, the join inside stop() hangs and the
    // test times out, and the thread census below catches stragglers.
    let prefix = srv.thread_prefix().to_owned();
    srv.stop();
    for c in &mut clients {
        assert!(c.ping(2).is_err(), "session must be dead after stop");
    }
    assert_eq!(srv.live_sessions(), 0);
    assert_eq!(
        sstore_server::server::threads_named(&prefix),
        0,
        "no server threads may outlive stop()"
    );
    // The port is released: a fresh bind to the same address works.
    drop(clients);
    let rebind = std::net::TcpListener::bind(addr);
    assert!(rebind.is_ok(), "address must be free after stop: {rebind:?}");
}

#[test]
fn tenant_metrics_are_separated_at_the_edge() {
    let srv = server("tenants", 1, 64, block(), 0);
    let mut gold = Client::connect(srv.local_addr(), "gold").expect("connect");
    let mut free = Client::connect(srv.local_addr(), "free").expect("connect");
    for i in 0..10 {
        gold.ingest_sync("reqs", vec![Tuple::new(vec![Value::Int(i)])]).expect("gold");
    }
    free.ingest_sync("reqs", vec![Tuple::new(vec![Value::Int(99)])]).expect("free");
    let entries = gold.metrics().expect("metrics");
    let get = |k: &str| {
        entries
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing metric {k}"))
    };
    assert_eq!(get("tenant.gold.ok"), 10);
    assert_eq!(get("tenant.free.ok"), 1);
    assert_eq!(get("tenant.gold.shed"), 0);
    // Engine-side view is present in the same response.
    assert!(get("engine.admission.p0.available") as usize <= 64);
    assert!(entries.iter().any(|(k, _)| k == "engine.class.border.count"));
    // Per-procedure executions and time: eleven batches went through
    // `absorb`, nothing called `note`, ad-hoc SQL is not a procedure.
    assert_eq!(get("engine.proc.absorb.count"), 11);
    assert!(get("engine.proc.absorb.exec_us") > 0);
    assert_eq!(get("engine.proc.note.count"), 0);
    assert_eq!(get("engine.proc.note.exec_us"), 0);
    // Both halves of recovery time, side by side (a fresh start: zero).
    assert_eq!(get("engine.recovery.replay_ms"), 0);
    assert_eq!(get("engine.recovery.restore_ms"), 0);
    // Latency histograms recorded per tenant (p99 exists once counted).
    assert!(get("tenant.gold.e2e_p99_us") > 0);
}
