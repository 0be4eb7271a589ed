//! The PE↔EE boundary.
//!
//! In H-Store the partition engine (Java) calls into the execution
//! engine (C++) through JNI; every batch of SQL shipped across is a real
//! cost, and §4.1 shows EE triggers paying off precisely by eliminating
//! those crossings. We reify the boundary as [`EeHandle`]:
//!
//! * [`BoundaryMode::Inline`] — the EE lives inside the partition thread
//!   and calls are plain function calls (zero-cost boundary; useful for
//!   unit tests and upper bounds);
//! * [`BoundaryMode::Channel`] — the EE runs on its own thread; every
//!   call is a rendezvous over a pair of std mpsc channels: one
//!   job out, one reply back, strictly alternating. This is the
//!   configuration the benchmarks use: a chain of N SQL stages costs N
//!   round trips in H-Store style but one in S-Store style (the EE
//!   trigger cascade happens entirely on the far side).
//!
//! A crossing is one closure over the EE: [`EeHandle::run`] calls it in
//! place inline, or ships it boxed to the EE thread and reads its result
//! off the one reply channel the handle keeps for its lifetime, not a
//! channel built per crossing (the H-Store chain crosses 2n + 3 times a
//! transaction). The closure is the request, so an EE operation is
//! written once, as an [`ExecutionEngine`] method.
//! [`EeHandle::exec_params`] is the one typed exception: it is the
//! per-statement hot path, and a `'static` closure would force the
//! inline transport to copy the borrowed parameters into a `Vec` every
//! statement; it copies only when it has to cross a thread.
//!
//! [`EeHandle::exec_rows`] is its many-row twin: an `INSERT … VALUES`
//! over a batch of parameter rows, in one crossing.
//!
//! Every crossing counts once in `ee_round_trips` in [`EngineMetrics`],
//! so experiments can report crossings alongside throughput. Statement
//! crossings are counted in the handle and folded into the engine-wide
//! counter, which every partition thread writes, at the next
//! [`EeHandle::run`] — every transaction ends in one (its commit or
//! abort), so the total is exact after any drain.
//!
//! [`BoundaryMode::Inline`]: crate::config::BoundaryMode::Inline
//! [`BoundaryMode::Channel`]: crate::config::BoundaryMode::Channel

use std::any::Any;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use sstore_common::{Error, Result, Value};
use sstore_sql::QueryResult;

use crate::ee::{ExecutionEngine, StmtId};
use crate::metrics::EngineMetrics;

/// What crosses to the EE thread: a closure producing a type-erased
/// result, which [`EeHandle::run`] downcasts back on the near side.
type Job = Box<dyn FnOnce(&mut ExecutionEngine) -> Reply + Send>;
type Reply = Box<dyn Any + Send>;

enum Transport {
    Inline(Box<ExecutionEngine>),
    Channel {
        /// `None` once shut down.
        jobs: Option<Sender<Job>>,
        replies: Receiver<Reply>,
        join: Option<JoinHandle<()>>,
    },
}

/// The PE's handle on its execution engine.
pub struct EeHandle {
    transport: Transport,
    metrics: Arc<EngineMetrics>,
    /// Crossings not yet folded into `ee_round_trips`.
    trips: u64,
}

impl EeHandle {
    /// Embeds the EE in the calling thread.
    pub fn inline(ee: ExecutionEngine, metrics: Arc<EngineMetrics>) -> Self {
        EeHandle { transport: Transport::Inline(Box::new(ee)), metrics, trips: 0 }
    }

    /// Spawns the EE on its own thread behind a job and a reply channel.
    pub fn channel(mut ee: ExecutionEngine, metrics: Arc<EngineMetrics>) -> Result<Self> {
        let (jobs, job_rx) = channel::<Job>();
        let (reply_tx, replies) = channel::<Reply>();
        let join = std::thread::Builder::new()
            .name("sstore-ee".into())
            .spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    if reply_tx.send(job(&mut ee)).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| Error::Internal(format!("spawning EE thread: {e}")))?;
        let transport = Transport::Channel { jobs: Some(jobs), replies, join: Some(join) };
        Ok(EeHandle { transport, metrics, trips: 0 })
    }

    /// Runs `f` against the EE: one boundary crossing. Inline this is a
    /// plain call; over the channel it is one boxed job out and one
    /// reply back, and fails (rather than blocks) once the EE thread is
    /// gone.
    pub fn run<R: Send + 'static>(
        &mut self,
        f: impl FnOnce(&mut ExecutionEngine) -> Result<R> + Send + 'static,
    ) -> Result<R> {
        let trips = std::mem::take(&mut self.trips) + 1;
        self.metrics.ee_round_trips.fetch_add(trips, std::sync::atomic::Ordering::Relaxed);
        match &mut self.transport {
            Transport::Inline(ee) => f(ee),
            Transport::Channel { jobs, replies, .. } => {
                let gone = || Error::InvalidState("EE thread is gone".into());
                let job: Job =
                    Box::new(move |ee: &mut ExecutionEngine| -> Reply { Box::new(f(ee)) });
                jobs.as_ref().ok_or_else(gone)?.send(job).map_err(|_| gone())?;
                let reply = replies.recv().map_err(|_| gone())?;
                // One job is in flight at a time (`&mut self`), so the
                // reply is this job's result.
                *reply.downcast::<Result<R>>().expect("EE reply is the job's own result type")
            }
        }
    }

    /// Executes a compiled statement with borrowed parameters: the
    /// inline transport passes the slice straight through (no `Vec`
    /// per statement); the channel transport copies once to ship it.
    pub fn exec_params(&mut self, stmt: StmtId, params: &[Value]) -> Result<QueryResult> {
        if let Transport::Inline(ee) = &mut self.transport {
            self.trips += 1;
            return ee.exec(stmt, params);
        }
        let params = params.to_vec();
        self.run(move |ee| ee.exec(stmt, &params))
    }

    /// Runs a compiled `INSERT … VALUES` once per parameter row
    /// ([`ExecutionEngine::exec_rows`]) in one crossing: the inline
    /// transport passes the rows straight through, the channel transport
    /// copies them once to ship them.
    pub fn exec_rows<P: AsRef<[Value]>>(&mut self, stmt: StmtId, rows: &[P]) -> Result<usize> {
        if let Transport::Inline(ee) = &mut self.transport {
            self.trips += 1;
            return ee.exec_rows(stmt, rows);
        }
        let rows: Vec<Vec<Value>> = rows.iter().map(|r| r.as_ref().to_vec()).collect();
        self.run(move |ee| ee.exec_rows(stmt, &rows))
    }

    /// Shuts down a channel EE thread (no-op inline): dropping the job
    /// sender ends its loop, then the thread is joined.
    pub fn shutdown(&mut self) {
        if let Transport::Channel { jobs, join, .. } = &mut self.transport {
            jobs.take();
            if let Some(j) = join.take() {
                let _ = j.join();
            }
        }
    }
}

impl Drop for EeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::App;
    use sstore_common::{tuple, BatchId, DataType, Schema};

    fn app() -> App {
        App::builder()
            .stream("s", Schema::of(&[("v", DataType::Int)]))
            .table("t", Schema::of(&[("v", DataType::Int)]))
            .proc(
                "p",
                &[
                    ("ins", "INSERT INTO t (v) VALUES (?)"),
                    ("all", "SELECT v FROM t ORDER BY v"),
                ],
                &["s"],
                |_| Ok(()),
            )
            .proc("q", &[], &[], |_| Ok(()))
            .pe_trigger("s", "q")
            .build()
            .unwrap()
    }

    fn handles() -> Vec<(EeHandle, crate::ee::ProcStmtMap, Arc<EngineMetrics>)> {
        let a = app();
        let ids = Arc::new(crate::names::AppIds::build(&a).unwrap());
        let mut out = Vec::new();
        for channel in [false, true] {
            let metrics = Arc::new(EngineMetrics::new());
            let (ee, map) = ExecutionEngine::install(&a, ids.clone(), metrics.clone()).unwrap();
            let h = if channel {
                EeHandle::channel(ee, metrics.clone()).unwrap()
            } else {
                EeHandle::inline(ee, metrics.clone())
            };
            out.push((h, map, metrics));
        }
        out
    }

    fn channel_handle() -> (EeHandle, crate::ee::ProcStmtMap) {
        let (h, map, _) = handles().into_iter().nth(1).unwrap();
        (h, map)
    }

    fn table_len(h: &mut EeHandle) -> usize {
        h.run(|ee| ee.table_len("t")).unwrap()
    }

    #[test]
    fn both_transports_run_transactions() {
        let ids = crate::names::AppIds::build(&app()).unwrap();
        let s_id = ids.table_id("s").unwrap();
        for (mut h, map, metrics) in handles() {
            h.run(|ee| ee.begin(Some(BatchId(1)))).unwrap();
            h.exec_params(map["p"]["ins"], &[Value::Int(7)]).unwrap();
            h.run(move |ee| ee.emit(s_id, vec![tuple![1i64]])).unwrap();
            let outcome = h.run(ExecutionEngine::commit).unwrap();
            assert_eq!(outcome.outputs, vec![(s_id, BatchId(1))]);
            assert!(outcome.slides.is_empty());
            let r = h.run(|ee| ee.query("SELECT v FROM t", &[])).unwrap();
            assert_eq!(r.rows, vec![tuple![7i64]]);
            assert_eq!(table_len(&mut h), 1);
            assert_eq!(h.run(|ee| Ok(ee.dangling_batches())).unwrap().len(), 1);
            // 7 crossings so far: one per `run`, one per `exec_params`.
            assert_eq!(EngineMetrics::get(&metrics.ee_round_trips), 7);
            h.shutdown();
        }
    }

    #[test]
    fn channel_errors_propagate() {
        let (mut h, map) = channel_handle();
        // exec outside txn must error through the channel.
        let err = h.exec_params(map["p"]["ins"], &[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)));
        // The EE thread must still be alive afterwards.
        h.run(|ee| ee.begin(None)).unwrap();
        h.run(ExecutionEngine::abort).unwrap();
        h.shutdown();
    }

    #[test]
    fn checkpoint_over_channel() {
        let (mut h, map) = channel_handle();
        let ins = map["p"]["ins"];
        let insert = |h: &mut EeHandle, v: i64| {
            h.run(|ee| ee.begin(None)).unwrap();
            h.exec_params(ins, &[Value::Int(v)]).unwrap();
            h.run(ExecutionEngine::commit).unwrap();
        };
        insert(&mut h, 3);
        let image = h.run(ExecutionEngine::checkpoint).unwrap();
        insert(&mut h, 4);
        assert_eq!(table_len(&mut h), 2);
        h.run(move |ee| ee.restore_chain(&[image])).unwrap();
        assert_eq!(table_len(&mut h), 1);
        h.shutdown();
    }

    #[test]
    fn run_after_shutdown_is_an_error_not_a_hang() {
        let (mut h, map) = channel_handle();
        h.shutdown();
        let err = h.run(|ee| ee.begin(None)).unwrap_err();
        assert!(matches!(err, Error::InvalidState(ref m) if m.contains("EE thread")), "{err}");
        assert!(h.exec_params(map["p"]["ins"], &[Value::Int(1)]).is_err());
        // A second shutdown (and the drop after it) is a no-op.
        h.shutdown();
    }
}
