//! The wire protocol: length-prefixed frames carrying tagged messages.
//!
//! A frame is a `u32` little-endian payload length followed by exactly
//! that many payload bytes. The payload is one message, encoded with
//! the same tagged binary codec the command log uses
//! ([`sstore_common::codec`]) — varint collections, tagged [`Value`]s
//! — so the engine and the wire share one encoding discipline.
//!
//! Framing is deliberately hostile-input-safe:
//!
//! * a frame longer than [`MAX_FRAME`] is rejected *before* any
//!   allocation (a 4-byte header must not make the server reserve
//!   gigabytes);
//! * a zero-length frame is rejected (every message has ≥ 1 tag byte);
//! * EOF exactly between frames is a clean close ([`read_frame`]
//!   returns `Ok(None)`); EOF *inside* a frame — header or payload —
//!   is a loud [`Error::Codec`], because a truncated frame means the
//!   peer died mid-sentence and whatever arrived must not be trusted;
//! * decoding consumes the whole payload: trailing garbage after a
//!   well-formed message is an error, not silently ignored slack.
//!
//! Every request produces exactly one response, in order. Failures
//! cross the wire as [`Response::Error`] carrying the *stable numeric
//! code* from [`Error::wire_code`] plus the client-safe message from
//! [`Error::client_message`] — so clients can tell `Overloaded`
//! (code 11: back off and retry) from `InvalidState` (code 10: fail
//! fast) without parsing prose, and server-side detail (I/O paths,
//! codec offsets) never leaks to the peer.

use std::io::{Read, Write};
use std::sync::Arc;

use sstore_common::codec::{Decoder, Encoder};
use sstore_common::{Error, Result, Tuple, Value};

/// Protocol version sent in [`Request::Hello`] and echoed in
/// [`Response::Welcome`]. A mismatch is refused at session start — not
/// discovered mid-stream as a mysterious decode error.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard ceiling on a frame payload (8 MiB). Large ingest batches
/// should be split client-side; a header claiming more than this is
/// treated as a protocol violation, not an allocation request.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

// Request tags.
const REQ_HELLO: u8 = 1;
const REQ_INGEST: u8 = 2;
const REQ_CALL: u8 = 3;
const REQ_QUERY: u8 = 4;
const REQ_PREPARE: u8 = 5;
const REQ_EXECUTE: u8 = 6;
const REQ_METRICS: u8 = 7;
const REQ_PING: u8 = 8;
const REQ_GOODBYE: u8 = 9;

// Response tags.
const RESP_WELCOME: u8 = 1;
const RESP_BATCH: u8 = 2;
const RESP_ROWS: u8 = 3;
const RESP_PREPARED: u8 = 4;
const RESP_METRICS: u8 = 5;
const RESP_PONG: u8 = 6;
const RESP_BYE: u8 = 7;
const RESP_ERROR: u8 = 8;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Session handshake — must be the first request on a connection.
    /// `tenant` tags every subsequent request for per-tenant QoS
    /// accounting (empty string means the default tenant).
    Hello { version: u32, tenant: String },
    /// Streaming ingest of one atomic batch. `sync` waits for the
    /// border transaction(s) to commit before responding.
    Ingest { stream: String, rows: Vec<Tuple>, sync: bool },
    /// OLTP stored-procedure call on a partition.
    Call { partition: u32, proc: String, params: Vec<Value> },
    /// Ad-hoc SQL, planned per call.
    Query { partition: u32, sql: String, params: Vec<Value> },
    /// Plan a statement once at session scope; returns a statement id
    /// for repeated [`Request::Execute`] with fresh parameters.
    Prepare { sql: String },
    /// Execute a session-prepared statement.
    Execute { partition: u32, stmt: u32, params: Vec<Value> },
    /// Server + engine counters and per-tenant latency percentiles.
    Metrics,
    /// Liveness probe; the token comes back in [`Response::Pong`].
    Ping { token: u64 },
    /// Orderly session end; the server responds [`Response::Bye`] and
    /// closes.
    Goodbye,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    Welcome { version: u32, partitions: u32 },
    /// Ingest accepted: the assigned batch id.
    Batch { batch: u64 },
    /// Result rows (Call/Query/Execute).
    Rows { columns: Arc<[String]>, rows: Vec<Tuple>, rows_affected: u64 },
    /// Statement planned; use this id in [`Request::Execute`].
    Prepared { stmt: u32 },
    /// Flat name→value counters (engine + server + per-tenant
    /// percentiles, as `tenant.<name>.e2e_p99_us`-style keys).
    Metrics { entries: Vec<(String, u64)> },
    /// Liveness probe echo.
    Pong { token: u64 },
    /// Orderly close acknowledgement.
    Bye,
    /// The request failed: stable numeric code ([`Error::wire_code`])
    /// plus the redacted client-safe message.
    Error { code: u16, message: String },
}

impl Response {
    /// Builds the wire form of an engine error: stable code + redacted
    /// message (server-side detail stays in the server log).
    pub fn from_error(e: &Error) -> Response {
        Response::Error { code: e.wire_code(), message: e.client_message() }
    }
}

/// A tagged value, or a tuple, takes at least one byte: the minimum
/// [`Decoder::get_seq`] bounds parameter and row counts by.
const MIN_ITEM: usize = 1;

impl Request {
    /// Encodes this request as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Request::Hello { version, tenant } => {
                enc.put_u8(REQ_HELLO);
                enc.put_u32(*version);
                enc.put_str(tenant);
            }
            Request::Ingest { stream, rows, sync } => {
                enc.put_u8(REQ_INGEST);
                enc.put_str(stream);
                enc.put_u8(u8::from(*sync));
                enc.put_seq(rows, Encoder::put_tuple);
            }
            Request::Call { partition, proc, params } => {
                enc.put_u8(REQ_CALL);
                enc.put_u32(*partition);
                enc.put_str(proc);
                enc.put_seq(params, Encoder::put_value);
            }
            Request::Query { partition, sql, params } => {
                enc.put_u8(REQ_QUERY);
                enc.put_u32(*partition);
                enc.put_str(sql);
                enc.put_seq(params, Encoder::put_value);
            }
            Request::Prepare { sql } => {
                enc.put_u8(REQ_PREPARE);
                enc.put_str(sql);
            }
            Request::Execute { partition, stmt, params } => {
                enc.put_u8(REQ_EXECUTE);
                enc.put_u32(*partition);
                enc.put_u32(*stmt);
                enc.put_seq(params, Encoder::put_value);
            }
            Request::Metrics => enc.put_u8(REQ_METRICS),
            Request::Ping { token } => {
                enc.put_u8(REQ_PING);
                enc.put_u64(*token);
            }
            Request::Goodbye => enc.put_u8(REQ_GOODBYE),
        }
        enc.finish()
    }

    /// Decodes one frame payload. The whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut dec = Decoder::new(payload);
        let req = match dec.get_u8()? {
            REQ_HELLO => Request::Hello { version: dec.get_u32()?, tenant: dec.get_str()? },
            REQ_INGEST => {
                let stream = dec.get_str()?;
                let sync = dec.get_u8()? != 0;
                let rows = dec.get_seq(MIN_ITEM, "row", Decoder::get_tuple)?;
                Request::Ingest { stream, rows, sync }
            }
            REQ_CALL => Request::Call {
                partition: dec.get_u32()?,
                proc: dec.get_str()?,
                params: dec.get_seq(MIN_ITEM, "value", Decoder::get_value)?,
            },
            REQ_QUERY => Request::Query {
                partition: dec.get_u32()?,
                sql: dec.get_str()?,
                params: dec.get_seq(MIN_ITEM, "value", Decoder::get_value)?,
            },
            REQ_PREPARE => Request::Prepare { sql: dec.get_str()? },
            REQ_EXECUTE => Request::Execute {
                partition: dec.get_u32()?,
                stmt: dec.get_u32()?,
                params: dec.get_seq(MIN_ITEM, "value", Decoder::get_value)?,
            },
            REQ_METRICS => Request::Metrics,
            REQ_PING => Request::Ping { token: dec.get_u64()? },
            REQ_GOODBYE => Request::Goodbye,
            tag => return Err(Error::Codec(format!("unknown request tag {tag}"))),
        };
        expect_exhausted(&dec)?;
        Ok(req)
    }
}

impl Response {
    /// Encodes this response as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Response::Welcome { version, partitions } => {
                enc.put_u8(RESP_WELCOME);
                enc.put_u32(*version);
                enc.put_u32(*partitions);
            }
            Response::Batch { batch } => {
                enc.put_u8(RESP_BATCH);
                enc.put_u64(*batch);
            }
            Response::Rows { columns, rows, rows_affected } => {
                enc.put_u8(RESP_ROWS);
                enc.put_seq(columns.iter(), |e, c| e.put_str(c));
                enc.put_seq(rows, Encoder::put_tuple);
                enc.put_u64(*rows_affected);
            }
            Response::Prepared { stmt } => {
                enc.put_u8(RESP_PREPARED);
                enc.put_u32(*stmt);
            }
            Response::Metrics { entries } => {
                enc.put_u8(RESP_METRICS);
                enc.put_seq(entries, |e, (k, v)| {
                    e.put_str(k);
                    e.put_u64(*v);
                });
            }
            Response::Pong { token } => {
                enc.put_u8(RESP_PONG);
                enc.put_u64(*token);
            }
            Response::Bye => enc.put_u8(RESP_BYE),
            Response::Error { code, message } => {
                enc.put_u8(RESP_ERROR);
                enc.put_u32(u32::from(*code));
                enc.put_str(message);
            }
        }
        enc.finish()
    }

    /// Decodes one frame payload. The whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut dec = Decoder::new(payload);
        let resp = match dec.get_u8()? {
            RESP_WELCOME => {
                Response::Welcome { version: dec.get_u32()?, partitions: dec.get_u32()? }
            }
            RESP_BATCH => Response::Batch { batch: dec.get_u64()? },
            RESP_ROWS => {
                let columns = dec.get_seq(MIN_ITEM, "column", Decoder::get_str)?.into();
                let rows = dec.get_seq(MIN_ITEM, "row", Decoder::get_tuple)?;
                Response::Rows { columns, rows, rows_affected: dec.get_u64()? }
            }
            RESP_PREPARED => Response::Prepared { stmt: dec.get_u32()? },
            RESP_METRICS => {
                // An entry is at least a name length and a u64.
                let entries = dec.get_seq(9, "entry", |d| Ok((d.get_str()?, d.get_u64()?)))?;
                Response::Metrics { entries }
            }
            RESP_PONG => Response::Pong { token: dec.get_u64()? },
            RESP_BYE => Response::Bye,
            RESP_ERROR => {
                let code = dec.get_u32()?;
                let code = u16::try_from(code)
                    .map_err(|_| Error::Codec(format!("error code {code} out of u16 range")))?;
                Response::Error { code, message: dec.get_str()? }
            }
            tag => return Err(Error::Codec(format!("unknown response tag {tag}"))),
        };
        expect_exhausted(&dec)?;
        Ok(resp)
    }
}

fn expect_exhausted(dec: &Decoder<'_>) -> Result<()> {
    if dec.is_exhausted() {
        Ok(())
    } else {
        Err(Error::Codec(format!(
            "{} trailing bytes after message at offset {}",
            dec.remaining(),
            dec.position()
        )))
    }
}

/// Writes one frame: length header + payload. The caller flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.is_empty() || payload.len() > MAX_FRAME {
        return Err(Error::Codec(format!(
            "frame payload of {} bytes outside 1..={MAX_FRAME}",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame. `Ok(None)` is a clean close (EOF exactly on a
/// frame boundary); EOF anywhere inside a frame is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(Error::Codec(format!(
                "connection closed mid-header ({filled} of 4 length bytes)"
            )));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(Error::Codec(format!(
            "frame header claims {len} bytes, outside 1..={MAX_FRAME}"
        )));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        let n = r.read(&mut payload[filled..])?;
        if n == 0 {
            return Err(Error::Codec(format!(
                "connection closed mid-frame ({filled} of {len} payload bytes)"
            )));
        }
        filled += n;
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, &[0xFF; 300]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![0xFF; 300]);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF between frames");
    }

    #[test]
    fn truncated_frames_are_loud() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // Cut inside the header.
        let mut r = &buf[..2];
        assert!(read_frame(&mut r).is_err());
        // Cut inside the payload.
        let mut r = &buf[..6];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_and_empty_frames_rejected() {
        let mut buf = Vec::new();
        assert!(write_frame(&mut buf, &[]).is_err());
        // A header claiming more than MAX_FRAME must fail before the
        // reader tries to allocate or consume that much.
        let header = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut r = &header[..];
        assert!(read_frame(&mut r).is_err());
        let zero = 0u32.to_le_bytes();
        let mut r = &zero[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn request_roundtrip_all_variants() {
        let reqs = vec![
            Request::Hello { version: PROTOCOL_VERSION, tenant: "acme".into() },
            Request::Ingest {
                stream: "s1".into(),
                rows: vec![
                    Tuple::new(vec![Value::Int(1), Value::Text("x".into())]),
                    Tuple::new(vec![Value::Null, Value::Float(2.5), Value::Bool(true)]),
                ],
                sync: true,
            },
            Request::Call { partition: 3, proc: "vote".into(), params: vec![Value::Int(7)] },
            Request::Query { partition: 0, sql: "SELECT 1".into(), params: vec![] },
            Request::Prepare { sql: "SELECT * FROM t WHERE id = ?".into() },
            Request::Execute { partition: 1, stmt: 42, params: vec![Value::Text("k".into())] },
            Request::Metrics,
            Request::Ping { token: u64::MAX },
            Request::Goodbye,
        ];
        for req in reqs {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "roundtrip of {req:?}");
        }
    }

    #[test]
    fn response_roundtrip_all_variants() {
        let resps = vec![
            Response::Welcome { version: PROTOCOL_VERSION, partitions: 4 },
            Response::Batch { batch: 99 },
            Response::Rows {
                columns: vec!["a".into(), "b".into()].into(),
                rows: vec![Tuple::new(vec![Value::Int(1), Value::Bool(false)])],
                rows_affected: 0,
            },
            Response::Prepared { stmt: 7 },
            Response::Metrics { entries: vec![("requests".into(), 12)] },
            Response::Pong { token: 0 },
            Response::Bye,
            Response::Error { code: 11, message: "overloaded: shed".into() },
        ];
        for resp in resps {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "roundtrip of {resp:?}");
        }
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let mut bytes = Request::Metrics.encode();
        bytes.push(0xAB);
        assert!(Request::decode(&bytes).is_err());
        let mut bytes = Response::Bye.encode();
        bytes.push(0x01);
        assert!(Response::decode(&bytes).is_err());
    }

    #[test]
    fn hostile_collection_counts_fail_before_allocating() {
        // An Ingest frame whose row-count varint claims 2^40 rows but
        // carries no row bytes must fail on the count check.
        let mut enc = Encoder::new();
        enc.put_u8(super::REQ_INGEST);
        enc.put_str("s");
        enc.put_u8(0);
        enc.put_varint(1 << 40);
        assert!(Request::decode(&enc.finish()).is_err());
    }
}
