//! One client session: a thread that owns a connection for its
//! lifetime and multiplexes the client's requests onto the shared
//! [`Engine`].
//!
//! The session is a strict request/response loop — every frame in
//! produces exactly one frame out, in order, so a client may pipeline
//! requests and match responses by position (per-session ordering is
//! pinned by the integration tests). Session state is exactly three
//! things: the tenant tag from the handshake, the prepared-statement
//! table (plan once per session, re-bind parameters per execute —
//! the classic server-edge amortization), and the per-tenant stats
//! cell requests are recorded into.
//!
//! Error discipline: an *engine* error (shed, abort, not-found…) is a
//! normal response — [`Response::Error`] with its stable wire code —
//! and the session continues; a *protocol* error (undecodable frame,
//! handshake violation) poisons the stream — one final error frame is
//! attempted and the connection closes, because after a malformed
//! frame the byte stream can no longer be trusted to be
//! frame-aligned. A client disconnect mid-request is not an error at
//! all: the engine call runs to completion (its admission credit
//! returns on commit/abort exactly as if the client had stayed), the
//! response write fails, and the session unwinds without leaking
//! anything — pinned by the disconnect-under-load test.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use sstore_common::{Error, Result};
use sstore_engine::Engine;
use sstore_sql::BoundStatement;

use crate::metrics::ServerMetrics;
use crate::protocol::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};

/// Runs one session to completion. Returns `Ok(())` for every orderly
/// end (Goodbye, clean disconnect, engine errors answered in-band);
/// `Err` only for protocol violations and broken transports.
pub fn run_session(
    engine: &Arc<Engine>,
    metrics: &Arc<ServerMetrics>,
    stream: TcpStream,
) -> Result<()> {
    // One small write per response; Nagle would add 40ms to every
    // request/response turn.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let result = serve(engine, metrics, &mut reader, &mut writer);
    metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
    if let Err(e) = &result {
        metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
        // Best effort: tell the peer why it is being hung up on. The
        // stream may already be gone; that is fine.
        let _ = send(&mut writer, &Response::from_error(e));
    }
    result
}

fn send(writer: &mut BufWriter<TcpStream>, resp: &Response) -> Result<()> {
    write_frame(writer, &resp.encode())?;
    writer.flush()?;
    Ok(())
}

fn serve(
    engine: &Arc<Engine>,
    metrics: &Arc<ServerMetrics>,
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
) -> Result<()> {
    // Handshake: the first frame must be a version-matched Hello.
    let tenant_name = match read_frame(reader)? {
        None => return Ok(()), // connected and left: not a violation
        Some(payload) => match Request::decode(&payload)? {
            Request::Hello { version, tenant } => {
                if version != PROTOCOL_VERSION {
                    return Err(Error::InvalidState(format!(
                        "protocol version {version} not supported (server speaks \
                         {PROTOCOL_VERSION})"
                    )));
                }
                if tenant.is_empty() {
                    "default".to_owned()
                } else {
                    tenant
                }
            }
            other => {
                return Err(Error::InvalidState(format!(
                    "first request must be Hello, got {other:?}"
                )))
            }
        },
    };
    let tenant = metrics.tenant(&tenant_name);
    send(
        writer,
        &Response::Welcome {
            version: PROTOCOL_VERSION,
            partitions: engine.partitions() as u32,
        },
    )?;

    let mut session = Session { engine, metrics, prepared: HashMap::new(), next_stmt: 1 };
    loop {
        let payload = match read_frame(reader) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()), // clean close without Goodbye
            // A dying transport mid-frame is a disconnect, not a
            // protocol argument to have with a peer that left.
            Err(Error::Io(_)) => return Ok(()),
            Err(e) => return Err(e),
        };
        let started = Instant::now();
        let req = Request::decode(&payload)?;
        let goodbye = matches!(req, Request::Goodbye);
        let resp = match session.handle(req) {
            Ok(resp) => resp,
            Err(e) => Response::from_error(&e),
        };
        let (ok, shed) = match &resp {
            Response::Error { code, .. } => (false, *code == Error::SHED_WIRE_CODE),
            _ => (true, false),
        };
        metrics.record(&tenant, started.elapsed(), shed, ok);
        if send(writer, &resp).is_err() {
            // Client disconnected while we worked. The engine call
            // already finished and returned its credit; nothing to do.
            return Ok(());
        }
        if goodbye {
            return Ok(());
        }
    }
}

struct Session<'a> {
    engine: &'a Arc<Engine>,
    metrics: &'a Arc<ServerMetrics>,
    /// Session-scoped prepared statements: id → (sql, plan). The sql
    /// text rides along because the command log records statements by
    /// text (replay replans).
    prepared: HashMap<u32, (String, Arc<BoundStatement>)>,
    next_stmt: u32,
}

impl Session<'_> {
    fn partition(&self, p: u32) -> Result<usize> {
        let p = p as usize;
        if p >= self.engine.partitions() {
            return Err(Error::not_found("partition", p.to_string()));
        }
        Ok(p)
    }

    fn handle(&mut self, req: Request) -> Result<Response> {
        match req {
            Request::Hello { .. } => {
                Err(Error::InvalidState("Hello is only valid as the first request".into()))
            }
            Request::Ingest { stream, rows, sync } => {
                if sync {
                    let (batch, _outcome) = self.engine.ingest_sync(&stream, rows)?;
                    Ok(Response::Batch { batch: batch.0 })
                } else {
                    let batch = self.engine.ingest(&stream, rows)?;
                    Ok(Response::Batch { batch: batch.0 })
                }
            }
            Request::Call { partition, proc, params } => {
                let p = self.partition(partition)?;
                let outcome = self.engine.call_at(p, &proc, params)?;
                Ok(rows_response(outcome.result))
            }
            Request::Query { partition, sql, params } => {
                let p = self.partition(partition)?;
                Ok(rows_response(self.engine.query_at(p, &sql, params)?))
            }
            Request::Prepare { sql } => {
                let stmt = self.engine.prepare(&sql)?;
                let id = self.next_stmt;
                self.next_stmt += 1;
                self.prepared.insert(id, (sql, stmt));
                Ok(Response::Prepared { stmt: id })
            }
            Request::Execute { partition, stmt, params } => {
                let p = self.partition(partition)?;
                let (sql, plan) = self
                    .prepared
                    .get(&stmt)
                    .cloned()
                    .ok_or_else(|| Error::not_found("prepared statement", stmt.to_string()))?;
                Ok(rows_response(self.engine.query_prepared(p, &sql, plan, params)?))
            }
            Request::Metrics => Ok(Response::Metrics { entries: self.metric_entries() }),
            Request::Ping { token } => Ok(Response::Pong { token }),
            Request::Goodbye => Ok(Response::Bye),
        }
    }

    /// Server counters and per-tenant percentiles, then the engine's
    /// rows ([`Engine::metric_entries`]), in one stable key space.
    fn metric_entries(&self) -> Vec<(String, u64)> {
        let mut entries = self.metrics.entries();
        entries.extend(self.engine.metric_entries());
        entries
    }
}

fn rows_response(result: sstore_sql::QueryResult) -> Response {
    Response::Rows {
        columns: result.columns,
        rows: result.rows,
        rows_affected: result.rows_affected as u64,
    }
}
