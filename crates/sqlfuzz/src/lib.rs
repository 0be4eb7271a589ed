//! Differential SQL fuzzing.
//!
//! The fuzzer generates schema-valid (and occasionally deliberately
//! invalid) SQL statements over randomly generated tables, executes them
//! through [`sstore_engine::Engine::query_at`] in two configurations —
//! on fresh and on post-crash-recovery replayed state — and compares
//! every result against a deliberately naive
//! in-memory reference executor that defines ground truth. Any row-set,
//! error-presence, or error-code mismatch is a divergence; a greedy
//! shrinker reduces the failing statement list to a minimal repro.
//!
//! Module map:
//! - [`gen`]: seeded case generator + SQL renderer (AST-based, so the
//!   shrinker can simplify statements structurally).
//! - [`refexec`]: the reference executor — `Vec<Vec<Value>>` scans,
//!   no indexes, no vectorization, written for obviousness.
//! - [`driver`]: runs one case through engine + reference and reports
//!   the first divergence.
//! - [`shrink`]: chunk-wise statement removal plus per-statement clause
//!   simplification, same discipline as `chaos/src/shrink.rs`.

pub mod driver;
pub mod gen;
pub mod refexec;
pub mod render;
pub mod shrink;
