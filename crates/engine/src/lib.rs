//! The S-Store engine: transactional stream processing on an
//! H-Store-style partitioned main-memory OLTP core.
//!
//! # Architecture (paper §3, Figure 4, plus cross-partition exchange)
//!
//! ```text
//!  remote clients (TCP, length-prefixed frames — crates/server)
//!        │  one session thread per connection: Hello{tenant} →
//!        │  ingest / ingest_sync / call / query / prepare+execute;
//!        │  errors cross the wire as stable numeric codes
//!        │  (Error::wire_code), per-tenant latency histograms at
//!        │  the session edge
//!        ▼
//!  client / stream injection            (caller threads)
//!        │  ingest / call / ad-hoc SQL (planned at this edge)
//!        ▼
//!  ╔═ admission gate (per partition) ═════════════════════════╗
//!  ║ client-origin work holds a credit: Border + Oltp classes ║
//!  ║ Block{timeout} parks the caller; Shed rejects with       ║
//!  ║ Error::Overloaded before any state is touched. Internal  ║
//!  ║ classes (Interior/ExchangeMerge/WindowSlide) are exempt. ║
//!  ╚══════╤═══════════════════════════════════════════════════╝
//!        │  crossbeam channel = the "network" round trip:
//!        │  typed Submit/Exchange per transaction; every control
//!        │  operation (checkpoint, restore, drain, query, …) is
//!        │  one closure run on the partition thread (Engine::ask)
//!        │  mixed-key batches hash-split into per-partition
//!        │  sub-batches sharing one logical BatchId
//!        │  (credit returns at commit/abort; per-class
//!        │   queue-wait/exec/e2e latency histograms)
//!        ▼
//!  ┌──────────────────────────────┐     ┌────────────────────┐
//!  │ Partition Engine (PE) #0     │◀═══▶│ PE #1 … PE #N      │
//!  │  · streaming scheduler       │ exchange hops: a commit  │
//!  │    (fast lane / client lane; │ onto an exchange stream  │
//!  │     slide txns ride the fast │ re-splits the batch by   │
//!  │     lane in batch order)     │ key hash and ships one   │
//!  │  · stored-procedure bodies   │ sub-batch per partition; │
//!  │  · PE triggers               │ receivers merge all N    │
//!  │  · exchange merge buffer     │ sources, then fire the   │
//!  │  · command log + recovery    │ PE trigger locally       │
//!  │    └─ Vfs seam: all durable  │                          │
//!  │       I/O (log + checkpoint) │                          │
//!  │       via StdVfs (prod) or   │                          │
//!  │       SimVfs (chaos: torn    │                          │
//!  │       tails, fsync errors,   │                          │
//!  │       crash points)          │                          │
//!  └──────────────┬───────────────┘                          │
//!                 │  EE boundary: one closure per crossing, called
//!                 │  inline or shipped over a channel hop (EeHandle::run)
//!                 ▼
//!  ┌───────────────────────────────────────────────┐
//!  │ Execution Engine (EE)                         │
//!  │  · SQL execution — single-table full-scan     │
//!  │    SELECTs run vectorized: typed columnar     │
//!  │    batches + selection bitmaps, expression    │
//!  │    kernels, hash group-by, bounded top-K for  │
//!  │    ORDER BY + LIMIT (sql::vexec) — window     │
//!  │    extents included, so slide-trigger GROUP   │
//!  │    BYs scan columnar; bit-identical to the    │
//!  │    row path; DML and point lookups stay       │
//!  │    row-at-a-time. Ad-hoc plans served from an │
//!  │    LRU cache keyed by SQL text                │
//!  │  · streams/windows as tables                  │
//!  │  · EE triggers, auto-GC                       │
//!  │  · event-time: per-stream high marks →        │
//!  │    partition watermark = min(high marks),     │
//!  │    advanced at commit like a border           │
//!  │    punctuation; time-window slides fire when  │
//!  │    it passes a pane boundary — late tuples    │
//!  │    merge within allowed lateness, then are    │
//!  │    counted & dropped                          │
//!  │  · undo log, checkpoints (incl. watermarks)   │
//!  │    + per-transaction dirty sets → delta images │
//!  └──────────────────────┬────────────────────────┘
//!                         │ durability (per partition)
//!                         ▼
//!  ┌───────────────────────────────────────────────┐
//!  │ Log lifecycle (segmented, bounded disk)       │
//!  │  · command log = chain of fixed-size sealed   │
//!  │    segments + one active tail (header: seq,   │
//!  │    base LSN; only the tail can tear)          │
//!  │  · checkpoint chain = base image + deltas     │
//!  │    (rows changed since each table's last      │
//!  │    image), compacted to a new base            │
//!  │    every `delta_chain_max` rounds             │
//!  │  · durability.manifest (atomic rename) names  │
//!  │    the live chain; GC deletes only segments   │
//!  │    and images the adopted manifest covers —   │
//!  │    crash-safe in both orderings              │
//!  │  · recovery: restore chain, replay suffix in  │
//!  │    parallel (one thread per partition; RTO =  │
//!  │    max per-partition replay, bounded by the   │
//!  │    checkpoint interval, not total history)    │
//!  └───────────────────────────────────────────────┘
//! ```
//!
//! The crate reproduces every architectural extension of §3.2:
//! streams/windows as time-varying tables ([`stream`], [`window`]),
//! EE/PE [`trigger`]s, the streaming [`scheduler`] that fast-tracks
//! triggered transactions, and strong/weak [`recovery`] over a
//! command [`log`] and [`checkpoint`]s — and extends the single-node
//! design in two directions: *exchange* workflow edges
//! ([`app::AppBuilder::exchange_stream`]) that re-partition data
//! between workflow stages, so one workflow spans partitions the way
//! MorphStream/Risingwave-style engines scale their dataflows; and
//! *time-based windows* ([`app::AppBuilder::time_window`]) with
//! watermark-driven slides and bounded out-of-order tolerance, so the
//! paper's flagship Linear Road workload (§6) runs on real event-time
//! semantics. A second trigger *source* — time, not just data arrival
//! — threads through commit (watermark advance), scheduling (slide
//! transactions on the fast lane), and recovery (both modes
//! reconverge watermarks deterministically from the log; checkpoints
//! carry stream high marks and window staging).
//!
//! Every transaction enters through the **admission edge**
//! ([`admission`]): client-origin requests ([`engine::Engine::ingest`],
//! [`engine::Engine::call_at`], ad-hoc [`engine::Engine::query_at`])
//! hold a per-partition credit for their full lifetime, so offered
//! load above capacity either parks the caller (`Block`) or is shed at
//! the border (`Shed`, `Error::Overloaded`) instead of growing the
//! partition queues without bound. Each request carries a
//! [`admission::TxnClass`] and admit/dispatch/commit timestamps;
//! [`metrics::EngineMetrics`] turns those into per-class queue-wait /
//! execution / end-to-end histograms with a p50/p95/p99 snapshot API —
//! the throughput-vs-latency-under-offered-load curve of the TSP
//! literature becomes directly measurable (see
//! `crates/bench/src/bin/overload.rs`).
//!
//! Applications are defined declaratively as an [`app::App`] (tables,
//! streams, windows, stored procedures, workflow edges) and run by an
//! [`engine::Engine`] under an [`config::EngineConfig`] that selects
//! S-Store vs H-Store behavior, boundary costs, logging, recovery
//! mode, and the admission edge (credits + overload policy).
//!
//! All durable I/O goes through the **[`vfs`] seam**: production uses
//! [`vfs::StdVfs`] (plain `std::fs`, one virtual call per flush), the
//! deterministic chaos harness (`crates/chaos`) plugs in
//! [`vfs::SimVfs`] — an in-memory filesystem that injects torn tails,
//! short writes, and fsync errors from a seeded RNG — and arms named
//! [`faults::CrashPoint`]s (pre-commit-append, post-append-pre-send,
//! mid-checkpoint phase 1/2, mid-compaction, post-manifest-pre-unlink,
//! pre-segment-unlink, post-exchange-ship) via a
//! [`faults::FaultInjector`], so a simulated kill -9 lands at an exact
//! engine step and recovery is checked against a model oracle.

pub mod admission;
pub mod app;
pub mod boundary;
pub mod checkpoint;
pub mod config;
pub mod ee;
pub mod engine;
pub mod faults;
pub mod log;
pub mod metrics;
pub mod names;
pub mod partition;
pub mod procedure;
pub mod recovery;
pub mod scheduler;
pub mod stream;
pub mod trigger;
pub mod vfs;
pub mod window;
pub mod workflow;

pub use admission::TxnClass;
pub use app::{App, AppBuilder, ProcBody};
pub use config::{
    BoundaryMode, EngineConfig, EngineMode, LoggingConfig, OverloadPolicy, RecoveryMode,
};
pub use engine::Engine;
pub use procedure::ProcCtx;
