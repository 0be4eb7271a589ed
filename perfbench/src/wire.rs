//! A client connection split into a send half and a receive half, so a
//! sender thread can keep to its schedule while a receiver thread
//! collects acknowledgements (`sstore_server::Client` is one `&mut`
//! object and cannot be shared between two threads). Built from the
//! server crate's public frame and message functions, with a span
//! around each one.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

use sstore_common::{Error, Result};
use sstore_server::protocol::{read_frame, write_frame, Request, Response};
use sstore_server::PROTOCOL_VERSION;

use crate::trace::Tracer;

pub struct SendHalf {
    w: BufWriter<TcpStream>,
}

pub struct RecvHalf {
    r: BufReader<TcpStream>,
}

/// Connects, completes Hello/Welcome, and splits.
pub fn connect(addr: SocketAddr, tenant: &str) -> Result<(SendHalf, RecvHalf)> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut tx = SendHalf {
        w: BufWriter::new(stream.try_clone()?),
    };
    let mut rx = RecvHalf {
        r: BufReader::new(stream),
    };
    let mut off = Tracer::off();
    tx.send(
        &Request::Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_owned(),
        },
        0,
        &mut off,
    )?;
    match rx.recv(0, &mut off)? {
        Response::Welcome { .. } => Ok((tx, rx)),
        Response::Error { code, message } => Err(Error::from_wire(code, message)),
        other => Err(Error::Codec(format!("expected Welcome, got {other:?}"))),
    }
}

impl SendHalf {
    /// Encodes and sends one request; returns the payload size.
    pub fn send(&mut self, req: &Request, op: u64, tr: &mut Tracer) -> Result<usize> {
        let s = tr.begin("encode", op);
        let payload = req.encode();
        tr.end(s);
        let s = tr.begin("send", op);
        let sent = write_frame(&mut self.w, &payload).and_then(|()| Ok(self.w.flush()?));
        tr.end(s);
        sent.map(|()| payload.len())
    }
}

impl RecvHalf {
    /// Receives and decodes one response. In-band errors come back as
    /// `Response::Error`; only a broken transport or frame is `Err`.
    pub fn recv(&mut self, op: u64, tr: &mut Tracer) -> Result<Response> {
        let s = tr.begin("recv", op);
        let frame = read_frame(&mut self.r);
        tr.end(s);
        self.decode(frame, op, tr)
    }

    fn decode(&self, frame: Result<Option<Vec<u8>>>, op: u64, tr: &mut Tracer) -> Result<Response> {
        let payload = frame?.ok_or_else(|| Error::Io("server closed the connection".into()))?;
        let s = tr.begin("decode", op);
        let resp = Response::decode(&payload);
        tr.end(s);
        resp
    }
}
