//! The TCP listener: accepts connections, spawns one session thread
//! each, and shuts the whole edge down without leaking a thread or a
//! socket.
//!
//! Built on `std::net` only (standing constraint: no registry deps).
//! That means blocking accept — so shutdown is a small protocol of its
//! own: [`Server::stop`] raises the shutdown flag, *connects to
//! itself* to pop the acceptor out of `accept()` (the portable way to
//! cancel a blocking accept without OS-specific socket options), then
//! force-closes every live session's socket via its registered
//! `TcpStream` clone (`shutdown(Both)` makes the session's blocking
//! read return immediately) and joins every thread. The acceptance
//! bench asserts the "no leaked threads/sockets" part by stopping a
//! server with dozens of live sessions and checking every join
//! completes.

use std::collections::HashMap;
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use sstore_common::{lock, Error, Result};
use sstore_engine::Engine;

use crate::metrics::ServerMetrics;
use crate::session::run_session;

/// Sessions register their socket + thread here so [`Server::stop`]
/// can force-close and join them; a session that ends on its own
/// leaves its entry for stop-time reaping (joining a finished thread
/// is instant).
#[derive(Default)]
struct SessionTable {
    live: HashMap<u64, (TcpStream, JoinHandle<()>)>,
}

/// A running TCP edge over one shared [`Engine`].
pub struct Server {
    addr: std::net::SocketAddr,
    thread_prefix: String,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<SessionTable>>,
    metrics: Arc<ServerMetrics>,
    engine: Arc<Engine>,
}

impl Server {
    /// Binds and starts accepting. Use port 0 to let the OS pick
    /// (tests); [`Server::local_addr`] reports the real address.
    pub fn start(engine: Arc<Engine>, addr: impl ToSocketAddrs) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let sessions: Arc<Mutex<SessionTable>> = Arc::default();
        let metrics = ServerMetrics::new();
        // Per-instance prefix (Linux caps thread names at 15 bytes, so
        // keep it short): lets a thread census tell THIS server's
        // threads apart from any other server in the process — which
        // is how the no-leaked-threads guarantee is tested.
        let thread_prefix = format!("ss{}-", addr.port());

        let acceptor = {
            let shutdown = shutdown.clone();
            let sessions = sessions.clone();
            let metrics = metrics.clone();
            let engine = engine.clone();
            let name = format!("{thread_prefix}acc");
            let prefix = thread_prefix.clone();
            std::thread::Builder::new()
                .name(name)
                .spawn(move || {
                    let mut next_id: u64 = 0;
                    for conn in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            // The wake-up self-connection (or anything
                            // racing it) is dropped unserved.
                            break;
                        }
                        let stream = match conn {
                            Ok(s) => s,
                            Err(_) => continue, // transient accept error
                        };
                        metrics.connections.fetch_add(1, Ordering::Relaxed);
                        let id = next_id;
                        next_id += 1;
                        let registered = match stream.try_clone() {
                            Ok(clone) => clone,
                            Err(_) => continue, // dead already
                        };
                        let handle = {
                            let engine = engine.clone();
                            let metrics = metrics.clone();
                            let sessions = sessions.clone();
                            std::thread::Builder::new()
                                .name(format!("{prefix}s{id}"))
                                .spawn(move || {
                                    // Protocol violations are already
                                    // counted in metrics; the session
                                    // result needs no further routing.
                                    let _ = run_session(&engine, &metrics, stream);
                                    // Self-deregister so long-lived
                                    // servers don't accumulate dead
                                    // entries; our own JoinHandle is
                                    // dropped with the entry, which
                                    // detaches (never joins) this
                                    // already-finished thread.
                                    lock(&sessions).live.remove(&id);
                                })
                                .expect("spawn session thread")
                        };
                        lock(&sessions).live.insert(id, (registered, handle));
                    }
                })
                .map_err(|e| Error::Io(e.to_string()))?
        };

        Ok(Server {
            addr,
            thread_prefix,
            shutdown,
            acceptor: Some(acceptor),
            sessions,
            metrics,
            engine,
        })
    }

    /// The name prefix of every thread this server spawns — pass to
    /// [`threads_named`] to census this instance's threads.
    pub fn thread_prefix(&self) -> &str {
        &self.thread_prefix
    }

    /// The bound address (resolved port when started with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Edge metrics (shared with every session).
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The engine this edge fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Live session count (sessions that ended have deregistered).
    pub fn live_sessions(&self) -> usize {
        lock(&self.sessions).live.len()
    }

    /// Stops accepting, force-closes every live session, joins every
    /// thread. Idempotent; called by Drop if not called explicitly.
    pub fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Pop the acceptor out of its blocking accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Force every live session's blocking read to return, then
        // join. Entries are drained first so a session's own
        // self-deregistration (which takes the same lock) cannot
        // deadlock against us.
        let drained: Vec<(TcpStream, JoinHandle<()>)> = {
            let mut table = lock(&self.sessions);
            table.live.drain().map(|(_, v)| v).collect()
        };
        for (sock, handle) in drained {
            let _ = sock.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Counts OS threads of this process whose name starts with a prefix
/// (via /proc; returns 0 where /proc is unavailable). The bench uses
/// it to prove "no leaked threads" after [`Server::stop`].
pub fn threads_named(prefix: &str) -> usize {
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut n = 0;
    for entry in entries.flatten() {
        let comm = entry.path().join("comm");
        if let Ok(name) = std::fs::read_to_string(comm) {
            if name.trim_end().starts_with(prefix) {
                n += 1;
            }
        }
    }
    n
}

// Unused-field escape hatch: `engine` is held so the edge keeps its
// engine alive for `Server::engine` callers even if they drop theirs.
#[allow(dead_code)]
fn _assert_send() {
    fn is_send<T: Send>() {}
    is_send::<Server>();
}
