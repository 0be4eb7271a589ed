//! A minimal blocking client for the wire protocol — what the shell,
//! the tests, and the load generator all speak through. Split
//! send/receive halves are public so an open-loop driver can pipeline
//! (fire N requests, then collect N responses by position).

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use sstore_common::{Error, Result, Tuple, Value};

use crate::protocol::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};

/// One connected, handshaken session.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    partitions: u32,
}

impl Client {
    /// Connects and completes the Hello/Welcome handshake. An empty
    /// tenant means the default tenant.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            partitions: 0,
        };
        client.send(&Request::Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_owned(),
        })?;
        match client.recv()? {
            Response::Welcome { partitions, .. } => {
                client.partitions = partitions;
                Ok(client)
            }
            Response::Error { code, message } => Err(Error::from_wire(code, message)),
            other => Err(Error::Codec(format!("expected Welcome, got {other:?}"))),
        }
    }

    /// Partition count the server reported at handshake.
    pub fn partitions(&self) -> u32 {
        self.partitions
    }

    /// Sets the read timeout (None = block forever).
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> Result<()> {
        self.reader.get_ref().set_read_timeout(t)?;
        Ok(())
    }

    /// Sends one request frame (pipelining half; pair with [`recv`]).
    ///
    /// [`recv`]: Client::recv
    pub fn send(&mut self, req: &Request) -> Result<()> {
        write_frame(&mut self.writer, &req.encode())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Receives one response frame. A server close mid-conversation is
    /// an error here (the protocol ends with Bye, not silence).
    pub fn recv(&mut self) -> Result<Response> {
        match read_frame(&mut self.reader)? {
            Some(payload) => Response::decode(&payload),
            None => Err(Error::Io("server closed the connection".into())),
        }
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response> {
        self.send(req)?;
        match self.recv()? {
            Response::Error { code, message } => Err(Error::from_wire(code, message)),
            resp => Ok(resp),
        }
    }

    /// Asynchronous atomic-batch ingest; returns the batch id.
    pub fn ingest(&mut self, stream: &str, rows: Vec<Tuple>) -> Result<u64> {
        match self.roundtrip(&Request::Ingest { stream: stream.to_owned(), rows, sync: false })? {
            Response::Batch { batch } => Ok(batch),
            other => Err(unexpected("Batch", &other)),
        }
    }

    /// Ingest that waits for the border transaction(s) to commit.
    pub fn ingest_sync(&mut self, stream: &str, rows: Vec<Tuple>) -> Result<u64> {
        match self.roundtrip(&Request::Ingest { stream: stream.to_owned(), rows, sync: true })? {
            Response::Batch { batch } => Ok(batch),
            other => Err(unexpected("Batch", &other)),
        }
    }

    /// OLTP stored-procedure call.
    pub fn call_at(
        &mut self,
        partition: u32,
        proc: &str,
        params: Vec<Value>,
    ) -> Result<(Vec<String>, Vec<Tuple>, u64)> {
        self.rows(Request::Call { partition, proc: proc.to_owned(), params })
    }

    /// Ad-hoc SQL.
    pub fn query_at(
        &mut self,
        partition: u32,
        sql: &str,
        params: Vec<Value>,
    ) -> Result<(Vec<String>, Vec<Tuple>, u64)> {
        self.rows(Request::Query { partition, sql: sql.to_owned(), params })
    }

    /// Plans a statement server-side; returns its session-scoped id.
    pub fn prepare(&mut self, sql: &str) -> Result<u32> {
        match self.roundtrip(&Request::Prepare { sql: sql.to_owned() })? {
            Response::Prepared { stmt } => Ok(stmt),
            other => Err(unexpected("Prepared", &other)),
        }
    }

    /// Executes a prepared statement with fresh parameters.
    pub fn execute(
        &mut self,
        partition: u32,
        stmt: u32,
        params: Vec<Value>,
    ) -> Result<(Vec<String>, Vec<Tuple>, u64)> {
        self.rows(Request::Execute { partition, stmt, params })
    }

    /// Server + engine + per-tenant counters.
    pub fn metrics(&mut self) -> Result<Vec<(String, u64)>> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics { entries } => Ok(entries),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self, token: u64) -> Result<u64> {
        match self.roundtrip(&Request::Ping { token })? {
            Response::Pong { token } => Ok(token),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Orderly close: Goodbye → Bye, then drop the connection.
    pub fn goodbye(mut self) -> Result<()> {
        match self.roundtrip(&Request::Goodbye)? {
            Response::Bye => Ok(()),
            other => Err(unexpected("Bye", &other)),
        }
    }

    fn rows(&mut self, req: Request) -> Result<(Vec<String>, Vec<Tuple>, u64)> {
        match self.roundtrip(&req)? {
            Response::Rows { columns, rows, rows_affected } => Ok((columns.to_vec(), rows, rows_affected)),
            other => Err(unexpected("Rows", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> Error {
    Error::Codec(format!("expected {wanted} response, got {got:?}"))
}
