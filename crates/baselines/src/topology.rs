//! A Storm+Trident-like topology engine.
//!
//! Faithful model properties (§5 of the paper, Toshniwal et al.
//! SIGMOD'14; Trident tutorial):
//!
//! * a topology is a pipeline of **bolts**, each on its own thread,
//!   connected by channels — one hop per bolt per tuple;
//! * **at-least-once** delivery via an acker: the spout registers every
//!   root tuple, bolts report `emitted - 1` deltas, completion when the
//!   pending count returns to zero (Storm's XOR ledger, modeled with a
//!   counter);
//! * bolts are **stateless**; durable state lives in an *external*
//!   key-value store ([`KvStore`], the benchmark's Memcached) behind a
//!   channel — every get/put is a round trip;
//! * **Trident** exactly-once: tuples are grouped into batches; the
//!   spout holds a batch until fully acked before releasing the next
//!   (bounded pipelining), and state writes go through
//!   [`KvClient::batch_put`] commits.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use sstore_common::{Error, Result, Tuple, Value};

// ---------------------------------------------------------------------
// External key-value store ("Memcached")
// ---------------------------------------------------------------------

enum KvRequest {
    Get(String, Sender<Option<Vec<Value>>>),
    Put(String, Vec<Value>),
    BatchPut(Vec<(String, Vec<Value>)>, Sender<()>),
    Incr(String, i64, Sender<i64>),
    Scan(String, Sender<Vec<(String, Vec<Value>)>>),
    Delete(String),
    Shutdown(Sender<()>),
}

/// Handle to the external state store. Cloneable; every operation is a
/// channel round trip to the store thread.
#[derive(Clone)]
pub struct KvClient {
    tx: Sender<KvRequest>,
    ops: Arc<AtomicU64>,
}

/// The store server; spawn with [`KvStore::spawn`].
pub struct KvStore {
    client: KvClient,
    join: Option<JoinHandle<()>>,
}

impl KvStore {
    /// Spawns the store thread.
    pub fn spawn() -> KvStore {
        let (tx, rx) = channel::<KvRequest>();
        let join = std::thread::Builder::new()
            .name("kv-store".into())
            .spawn(move || kv_thread(rx))
            .expect("spawning kv store");
        KvStore { client: KvClient { tx, ops: Arc::new(AtomicU64::new(0)) }, join: Some(join) }
    }

    /// A client handle.
    pub fn client(&self) -> KvClient {
        self.client.clone()
    }

    /// Stops the store.
    pub fn shutdown(mut self) {
        let (tx, rx) = channel();
        if self.client.tx.send(KvRequest::Shutdown(tx)).is_ok() {
            let _ = rx.recv();
        }
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

fn kv_thread(rx: Receiver<KvRequest>) {
    let mut map: HashMap<String, Vec<Value>> = HashMap::new();
    while let Ok(req) = rx.recv() {
        match req {
            KvRequest::Get(k, reply) => {
                let _ = reply.send(map.get(&k).cloned());
            }
            KvRequest::Put(k, v) => {
                map.insert(k, v);
            }
            KvRequest::BatchPut(kvs, reply) => {
                for (k, v) in kvs {
                    map.insert(k, v);
                }
                let _ = reply.send(());
            }
            KvRequest::Incr(k, by, reply) => {
                let slot = map.entry(k).or_insert_with(|| vec![Value::Int(0)]);
                let cur = match &slot[0] {
                    Value::Int(v) => *v,
                    _ => 0,
                };
                slot[0] = Value::Int(cur + by);
                let _ = reply.send(cur + by);
            }
            KvRequest::Scan(prefix, reply) => {
                let mut out: Vec<(String, Vec<Value>)> = map
                    .iter()
                    .filter(|(k, _)| k.starts_with(&prefix))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                out.sort_by(|a, b| a.0.cmp(&b.0));
                let _ = reply.send(out);
            }
            KvRequest::Delete(k) => {
                map.remove(&k);
            }
            KvRequest::Shutdown(reply) => {
                let _ = reply.send(());
                return;
            }
        }
    }
}

impl KvClient {
    fn bump(&self) {
        self.ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Total operations issued through this client family.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Point read (one round trip).
    pub fn get(&self, key: &str) -> Result<Option<Vec<Value>>> {
        self.bump();
        let (tx, rx) = channel();
        self.tx
            .send(KvRequest::Get(key.to_owned(), tx))
            .map_err(|_| Error::InvalidState("kv store down".into()))?;
        rx.recv().map_err(|_| Error::InvalidState("kv store down".into()))
    }

    /// Fire-and-forget write (Storm-style at-least-once state write).
    pub fn put(&self, key: &str, value: Vec<Value>) -> Result<()> {
        self.bump();
        self.tx
            .send(KvRequest::Put(key.to_owned(), value))
            .map_err(|_| Error::InvalidState("kv store down".into()))
    }

    /// Trident batch commit: atomic multi-key write, confirmed (one
    /// round trip regardless of batch size).
    pub fn batch_put(&self, kvs: Vec<(String, Vec<Value>)>) -> Result<()> {
        self.bump();
        let (tx, rx) = channel();
        self.tx
            .send(KvRequest::BatchPut(kvs, tx))
            .map_err(|_| Error::InvalidState("kv store down".into()))?;
        rx.recv().map_err(|_| Error::InvalidState("kv store down".into()))
    }

    /// Atomic counter increment, returns the new value.
    pub fn incr(&self, key: &str, by: i64) -> Result<i64> {
        self.bump();
        let (tx, rx) = channel();
        self.tx
            .send(KvRequest::Incr(key.to_owned(), by, tx))
            .map_err(|_| Error::InvalidState("kv store down".into()))?;
        rx.recv().map_err(|_| Error::InvalidState("kv store down".into()))
    }

    /// Prefix scan (expensive; Memcached-style stores barely support
    /// this — the leaderboard bolt needs it).
    pub fn scan(&self, prefix: &str) -> Result<Vec<(String, Vec<Value>)>> {
        self.bump();
        let (tx, rx) = channel();
        self.tx
            .send(KvRequest::Scan(prefix.to_owned(), tx))
            .map_err(|_| Error::InvalidState("kv store down".into()))?;
        rx.recv().map_err(|_| Error::InvalidState("kv store down".into()))
    }

    /// Deletes a key.
    pub fn delete(&self, key: &str) -> Result<()> {
        self.bump();
        self.tx
            .send(KvRequest::Delete(key.to_owned()))
            .map_err(|_| Error::InvalidState("kv store down".into()))
    }
}

// ---------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------

/// A bolt: processes one tuple, emits downstream via the output vec.
/// State access goes through the external [`KvClient`].
pub type BoltFn = Box<dyn Fn(&Tuple, &mut Vec<Tuple>, &KvClient) -> Result<()> + Send>;

enum StageMsg {
    Data { root: u64, tuple: Tuple },
    Shutdown,
}

enum AckMsg {
    Register { root: u64 },
    Delta { root: u64, delta: i64 },
    /// A bolt failed the tuple: drop the root without completing it.
    Cancel { root: u64 },
    Shutdown,
}

/// A running topology: spout → bolt₁ → … → boltₙ with an acker.
pub struct Topology {
    first: Sender<StageMsg>,
    ack_tx: Sender<AckMsg>,
    completed: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    joins: Vec<JoinHandle<()>>,
    next_root: u64,
    in_flight: u64,
}

impl Topology {
    /// Builds and starts a linear topology from bolts. `kv` is shared by
    /// every bolt (cloned per stage).
    pub fn start(bolts: Vec<BoltFn>, kv: &KvClient) -> Topology {
        assert!(!bolts.is_empty(), "topology needs at least one bolt");
        let (ack_tx, ack_rx) = channel::<AckMsg>();
        let completed = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        {
            let completed = completed.clone();
            joins.push(
                std::thread::Builder::new()
                    .name("acker".into())
                    .spawn(move || acker_thread(ack_rx, completed))
                    .expect("spawning acker"),
            );
        }
        // Build stages back to front.
        let mut next_tx: Option<Sender<StageMsg>> = None;
        for (i, bolt) in bolts.into_iter().enumerate().rev() {
            let (tx, rx) = channel::<StageMsg>();
            let downstream = next_tx.clone();
            let ack = ack_tx.clone();
            let kv = kv.clone();
            let failed = failed.clone();
            joins.push(
                std::thread::Builder::new()
                    .name(format!("bolt-{i}"))
                    .spawn(move || bolt_thread(rx, downstream, ack, kv, bolt, failed))
                    .expect("spawning bolt"),
            );
            next_tx = Some(tx);
        }
        Topology {
            first: next_tx.expect("at least one bolt"),
            ack_tx,
            completed,
            failed,
            joins,
            next_root: 0,
            in_flight: 0,
        }
    }

    /// Emits one tuple from the spout (registers it with the acker).
    pub fn emit(&mut self, tuple: Tuple) -> Result<()> {
        let root = self.next_root;
        self.next_root += 1;
        self.ack_tx
            .send(AckMsg::Register { root })
            .map_err(|_| Error::InvalidState("acker down".into()))?;
        self.first
            .send(StageMsg::Data { root, tuple })
            .map_err(|_| Error::InvalidState("topology down".into()))?;
        self.in_flight += 1;
        Ok(())
    }

    /// Trident batch discipline: emits a batch and spins until every
    /// tuple of it is fully acked (exactly-once release).
    pub fn submit_batch(&mut self, batch: Vec<Tuple>) -> Result<()> {
        for t in batch {
            self.emit(t)?;
        }
        let target = self.next_root;
        while self.completed.load(Ordering::Acquire) + self.failed.load(Ordering::Acquire) < target
        {
            // Yield rather than spin: the bolts need the cores.
            std::thread::yield_now();
        }
        self.in_flight = 0;
        Ok(())
    }

    /// Completed root tuples.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }

    /// Tuples failed by a bolt error (at-least-once would replay; we
    /// count them).
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Acquire)
    }

    /// Stops all threads.
    pub fn shutdown(mut self) {
        let _ = self.first.send(StageMsg::Shutdown);
        let _ = self.ack_tx.send(AckMsg::Shutdown);
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

fn bolt_thread(
    rx: Receiver<StageMsg>,
    downstream: Option<Sender<StageMsg>>,
    ack: Sender<AckMsg>,
    kv: KvClient,
    bolt: BoltFn,
    failed: Arc<AtomicU64>,
) {
    let mut out: Vec<Tuple> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            StageMsg::Data { root, tuple } => {
                out.clear();
                match bolt(&tuple, &mut out, &kv) {
                    Ok(()) => {
                        let emitted = if downstream.is_some() { out.len() as i64 } else { 0 };
                        // Storm's ledger: processing consumes 1, emits k.
                        let _ = ack.send(AckMsg::Delta { root, delta: emitted - 1 });
                        if let Some(d) = &downstream {
                            for t in out.drain(..) {
                                let _ = d.send(StageMsg::Data { root, tuple: t });
                            }
                        }
                    }
                    Err(_) => {
                        failed.fetch_add(1, Ordering::Release);
                        // Cancel the whole root so the spout is not stuck.
                        let _ = ack.send(AckMsg::Cancel { root });
                    }
                }
            }
            StageMsg::Shutdown => {
                if let Some(d) = &downstream {
                    let _ = d.send(StageMsg::Shutdown);
                }
                return;
            }
        }
    }
}

fn acker_thread(rx: Receiver<AckMsg>, completed: Arc<AtomicU64>) {
    let mut pending: HashMap<u64, i64> = HashMap::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            AckMsg::Register { root } => {
                *pending.entry(root).or_insert(0) += 1;
            }
            AckMsg::Delta { root, delta } => {
                // A cancelled root may have been removed already; late
                // deltas for it are ignored.
                if let Some(e) = pending.get_mut(&root) {
                    *e += delta;
                    if *e <= 0 {
                        pending.remove(&root);
                        completed.fetch_add(1, Ordering::Release);
                    }
                }
            }
            AckMsg::Cancel { root } => {
                pending.remove(&root);
            }
            AckMsg::Shutdown => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::tuple;

    #[test]
    fn kv_store_basic_ops() {
        let store = KvStore::spawn();
        let kv = store.client();
        assert!(kv.get("x").unwrap().is_none());
        kv.put("x", vec![Value::Int(1)]).unwrap();
        assert_eq!(kv.get("x").unwrap().unwrap(), vec![Value::Int(1)]);
        assert_eq!(kv.incr("c", 5).unwrap(), 5);
        assert_eq!(kv.incr("c", 2).unwrap(), 7);
        kv.batch_put(vec![
            ("lb:1".into(), vec![Value::Int(10)]),
            ("lb:2".into(), vec![Value::Int(20)]),
        ])
        .unwrap();
        let scanned = kv.scan("lb:").unwrap();
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[0].0, "lb:1");
        kv.delete("lb:1").unwrap();
        assert_eq!(kv.scan("lb:").unwrap().len(), 1);
        assert!(kv.ops() >= 8);
        store.shutdown();
    }

    #[test]
    fn topology_processes_batches_exactly_once() {
        let store = KvStore::spawn();
        let kv = store.client();
        let bolts: Vec<BoltFn> = vec![
            // Bolt 1: passes through, doubling the value.
            Box::new(|t, out, _kv| {
                out.push(tuple![t.get(0).as_int()? * 2]);
                Ok(())
            }),
            // Bolt 2: accumulates into the KV store.
            Box::new(|t, _out, kv| {
                kv.incr("sum", t.get(0).as_int()?)?;
                Ok(())
            }),
        ];
        let mut topo = Topology::start(bolts, &kv);
        topo.submit_batch((1..=10i64).map(|v| tuple![v]).collect()).unwrap();
        assert_eq!(topo.completed(), 10);
        assert_eq!(kv.get("sum").unwrap().unwrap(), vec![Value::Int(110)]);
        topo.submit_batch((1..=5i64).map(|v| tuple![v]).collect()).unwrap();
        assert_eq!(topo.completed(), 15);
        topo.shutdown();
        store.shutdown();
    }

    #[test]
    fn bolt_fan_out_acks_correctly() {
        let store = KvStore::spawn();
        let kv = store.client();
        let bolts: Vec<BoltFn> = vec![
            // Emits 3 tuples per input.
            Box::new(|t, out, _| {
                for i in 0..3i64 {
                    out.push(tuple![t.get(0).as_int()? + i]);
                }
                Ok(())
            }),
            Box::new(|_t, _out, kv| {
                kv.incr("n", 1)?;
                Ok(())
            }),
        ];
        let mut topo = Topology::start(bolts, &kv);
        topo.submit_batch(vec![tuple![0i64], tuple![10i64]]).unwrap();
        assert_eq!(topo.completed(), 2);
        assert_eq!(kv.get("n").unwrap().unwrap(), vec![Value::Int(6)]);
        topo.shutdown();
        store.shutdown();
    }

    #[test]
    fn failed_tuples_are_counted_not_hung() {
        let store = KvStore::spawn();
        let kv = store.client();
        let bolts: Vec<BoltFn> = vec![Box::new(|t, _out, _| {
            if t.get(0).as_int()? == 13 {
                return Err(Error::Eval("unlucky".into()));
            }
            Ok(())
        })];
        let mut topo = Topology::start(bolts, &kv);
        topo.submit_batch(vec![tuple![1i64], tuple![13i64], tuple![2i64]]).unwrap();
        assert_eq!(topo.completed(), 2);
        assert_eq!(topo.failed(), 1);
        topo.shutdown();
        store.shutdown();
    }
}
