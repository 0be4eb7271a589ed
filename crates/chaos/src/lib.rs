//! Deterministic chaos harness.
//!
//! Generates seeded scenarios — multi-partition workloads with
//! out-of-order event time, exchange hops, window slides, ad-hoc SQL,
//! and overload shedding — and runs each against a real engine on a
//! fault-injecting in-memory VFS with scheduled crash points, checking
//! final state and metrics against a single-threaded model oracle.
//!
//! Module map:
//! - [`workload`]: the fixed app and the seeded scenario generators
//!   ([`generate`], [`generate_longrun`]).
//! - [`harness`]: runs one scenario in one recovery mode
//!   ([`run_scenario`]) through its crashes and restarts.
//! - [`oracle`]: the expected state, derived from the surviving logs.
//! - [`shrink`]: greedy reduction of a failing scenario.
//!
//! The `chaos` binary is a CLI over these; `tests/chaos_smoke.rs` at the
//! workspace root runs a fixed slice of seeds inside `cargo test`.

pub mod harness;
pub mod oracle;
pub mod shrink;
pub mod workload;

pub use harness::run_scenario;
pub use workload::{generate, generate_longrun, Scenario};
