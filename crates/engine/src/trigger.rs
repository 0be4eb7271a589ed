//! Trigger definitions (§3.2.3).
//!
//! Two kinds, differing in which layer reacts to new tuples:
//!
//! * **EE triggers** attach SQL to a stream or window table. Inserting a
//!   batch into the table runs the SQL *inside the same EE visit and the
//!   same transaction* — no PE↔EE round trip. On streams they fire per
//!   insert batch; on windows they fire per slide. After a stream's EE
//!   triggers run, the consumed rows are garbage-collected automatically.
//! * **PE triggers** attach a downstream stored procedure to a stream.
//!   When a transaction that appended a batch to the stream commits, the
//!   partition engine enqueues the downstream procedure directly
//!   (fast-tracked by the streaming scheduler) — no client round trip.
//!
//! Windows cannot carry PE triggers (window state is private to its
//! owning procedure, §3.2.2); this is enforced by
//! [`crate::names::AppIds::build`] at build time.

/// An EE trigger: SQL statements to run inside the EE when tuples land
/// in `table` (stream: per batch; window: per slide).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EeTriggerDef {
    /// Stream or window table the trigger watches.
    pub table: String,
    /// SQL statements, run in order. Planned once by
    /// [`crate::names::AppIds::build`].
    pub sql: Vec<String>,
}

/// A PE trigger: `proc` is enqueued whenever a transaction commits a new
/// atomic batch on `stream`. These are the workflow edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeTriggerDef {
    /// The watched stream.
    pub stream: String,
    /// Downstream stored procedure to activate.
    pub proc: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defs_hold_shape() {
        let ee = EeTriggerDef { table: "s1".into(), sql: vec!["INSERT INTO s2 SELECT * FROM s1".into()] };
        assert_eq!(ee.sql.len(), 1);
        let pe = PeTriggerDef { stream: "s2".into(), proc: "sp2".into() };
        assert_eq!(pe.proc, "sp2");
    }
}
