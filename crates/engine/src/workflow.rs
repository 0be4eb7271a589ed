//! The formal correctness conditions of §2.2, checked against engine
//! execution traces.
//!
//! The workflow DAG itself — stored procedures joined by streams, a
//! nested transaction producing its children's outputs — is built once
//! over interned ids by [`AppIds::build`] (see [`crate::names`]), which
//! rejects cycles and gives every procedure its position in one fixed
//! topological order ([`crate::names::ProcMeta::topo_pos`]).
//!
//! [`check_schedule`] is the executable form of the paper's two ordering
//! constraints — tests run it against engine execution traces, reading
//! positions from that order:
//!
//! 1. **Workflow order**: within one execution round (batch), TEs appear
//!    in an order consistent with a topological order of the DAG.
//! 2. **Stream order**: for each procedure, TEs appear in batch order.

use std::collections::HashMap;

use sstore_common::{BatchId, Error, Result};

use crate::names::AppIds;

/// One committed transaction execution, as recorded by the engine trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Stored procedure name.
    pub proc: String,
    /// The batch (execution round) it processed; `None` for OLTP.
    pub batch: Option<BatchId>,
    /// Partition the TE committed on.
    pub partition: usize,
}

/// Checks a committed-TE trace against the §2.2 correctness conditions.
///
/// * stream order: per (proc, partition), batches must be strictly
///   increasing;
/// * workflow order: per (batch, partition), the TEs must be
///   topologically ordered.
///
/// Both constraints are *per partition*: a workflow that spans
/// partitions runs one serial TE sequence on each partition, and a
/// batch legitimately appears once per partition (sub-batches of one
/// logical batch, or broadcast alignment rounds). Cross-partition
/// ordering is causal (a downstream TE cannot commit before the
/// upstream commit that shipped it data), so the per-partition view is
/// the strongest order a trace can witness. OLTP events (no batch) may
/// interleave anywhere.
pub fn check_schedule(ids: &AppIds, trace: &[TraceEvent]) -> Result<()> {
    let mut last_batch: HashMap<(&str, usize), BatchId> = HashMap::new();
    let mut per_batch_seen: HashMap<(BatchId, usize), Vec<&str>> = HashMap::new();

    for ev in trace {
        let Some(batch) = ev.batch else { continue };
        // Stream order constraint.
        if let Some(prev) = last_batch.get(&(ev.proc.as_str(), ev.partition)) {
            if *prev >= batch {
                return Err(Error::StreamViolation(format!(
                    "stream order violated: {} ran batch {} after batch {} on partition {}",
                    ev.proc, batch, prev, ev.partition
                )));
            }
        }
        last_batch.insert((ev.proc.as_str(), ev.partition), batch);
        per_batch_seen.entry((batch, ev.partition)).or_default().push(ev.proc.as_str());
    }

    // Workflow order constraint, per round per partition.
    for ((batch, partition), seen) in &per_batch_seen {
        let mut last_pos = None;
        for proc in seen {
            let Some(p) = ids.proc_id(proc).map(|p| ids.proc(p).topo_pos) else { continue };
            if let Some(lp) = last_pos {
                if p < lp {
                    return Err(Error::StreamViolation(format!(
                        "workflow order violated in round {batch} on partition \
                         {partition}: {proc} ran after a successor"
                    )));
                }
            }
            last_pos = Some(p);
        }
    }
    Ok(())
}

/// Additionally checks that no foreign TE interleaves a nested group:
/// whenever `group` members appear for a batch, they must be contiguous
/// in the trace (only other batches' OLTP events are still forbidden —
/// nested transactions isolate the group as a unit, §2.3).
pub fn check_nested_contiguity(trace: &[TraceEvent], group: &[String]) -> Result<()> {
    let mut i = 0;
    while i < trace.len() {
        if group.iter().any(|g| *g == trace[i].proc) {
            let batch = trace[i].batch;
            let mut count = 1;
            while count < group.len() {
                i += 1;
                if i >= trace.len() {
                    return Err(Error::StreamViolation(
                        "nested group truncated at end of trace".into(),
                    ));
                }
                if !group.iter().any(|g| *g == trace[i].proc) || trace[i].batch != batch {
                    return Err(Error::StreamViolation(format!(
                        "nested group interleaved by {} at position {}",
                        trace[i].proc, i
                    )));
                }
                count += 1;
            }
        }
        i += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::App;
    use sstore_common::{DataType, ProcId, Schema};

    /// An app of no-op procedures `(name, outputs)` joined by
    /// `(stream, proc)` PE triggers; every stream named is declared.
    fn app(procs: &[(&str, &[&str])], triggers: &[(&str, &str)]) -> Result<App> {
        let mut streams: Vec<&str> =
            procs.iter().flat_map(|(_, o)| o.iter().copied()).chain(triggers.iter().map(|t| t.0)).collect();
        streams.sort_unstable();
        streams.dedup();
        let mut b = App::builder();
        for s in streams {
            b = b.stream(s, Schema::of(&[("v", DataType::Int)]));
        }
        for (p, outputs) in procs {
            b = b.proc(p, &[], outputs, |_| Ok(()));
        }
        for (s, p) in triggers {
            b = b.pe_trigger(s, p);
        }
        b.build()
    }

    /// Procedure names in topological order.
    fn topo_order(app: &App) -> Vec<String> {
        let ids = AppIds::build(app).unwrap();
        let mut procs: Vec<ProcId> = (0..ids.proc_count() as u32).map(ProcId).collect();
        procs.sort_by_key(|&p| ids.proc(p).topo_pos);
        procs.iter().map(|&p| ids.proc_name(p).to_string()).collect()
    }

    fn linear3() -> AppIds {
        let app = app(
            &[("sp1", &["s12"]), ("sp2", &["s23"]), ("sp3", &[])],
            &[("s12", "sp2"), ("s23", "sp3")],
        );
        AppIds::build(&app.unwrap()).unwrap()
    }

    fn ev(proc: &str, batch: u64) -> TraceEvent {
        TraceEvent { proc: proc.into(), batch: Some(BatchId(batch)), partition: 0 }
    }

    fn ev_at(proc: &str, batch: u64, partition: usize) -> TraceEvent {
        TraceEvent { proc: proc.into(), batch: Some(BatchId(batch)), partition }
    }

    #[test]
    fn topo_order_linear() {
        // Declared last-first: the order follows the edges, not the
        // declarations.
        let app = app(
            &[("sp3", &[]), ("sp2", &["s23"]), ("sp1", &["s12"])],
            &[("s12", "sp2"), ("s23", "sp3")],
        );
        assert_eq!(topo_order(&app.unwrap()), vec!["sp1", "sp2", "sp3"]);
    }

    #[test]
    fn cycle_detected() {
        let r = app(&[("a", &["s1"]), ("b", &["s2"])], &[("s1", "b"), ("s2", "a")]);
        assert!(matches!(&r, Err(Error::StreamViolation(m)) if m.contains("cycle through a")), "{r:?}");
    }

    #[test]
    fn diamond_is_acyclic() {
        let app = app(
            &[("src", &["l", "r"]), ("left", &["out"]), ("right", &["out2"]), ("sink", &[])],
            &[("l", "left"), ("r", "right"), ("out", "sink"), ("out2", "sink")],
        );
        let order = topo_order(&app.unwrap());
        assert_eq!(order[0], "src");
        assert_eq!(order[3], "sink");
    }

    #[test]
    fn valid_schedules_pass() {
        let g = linear3();
        // Depth-first rounds.
        check_schedule(
            &g,
            &[ev("sp1", 1), ev("sp2", 1), ev("sp3", 1), ev("sp1", 2), ev("sp2", 2), ev("sp3", 2)],
        )
        .unwrap();
        // Pipelined (both legal per §2.2).
        check_schedule(
            &g,
            &[ev("sp1", 1), ev("sp1", 2), ev("sp2", 1), ev("sp2", 2), ev("sp3", 1), ev("sp3", 2)],
        )
        .unwrap();
    }

    #[test]
    fn stream_order_violation_caught() {
        let g = linear3();
        let err = check_schedule(&g, &[ev("sp1", 2), ev("sp1", 1)]).unwrap_err();
        assert!(matches!(err, Error::StreamViolation(_)));
    }

    #[test]
    fn constraints_are_per_partition() {
        let g = linear3();
        // The same batch appearing on two partitions (sub-batches of
        // one logical batch) is legal...
        check_schedule(
            &g,
            &[ev_at("sp1", 1, 0), ev_at("sp1", 1, 1), ev_at("sp2", 1, 1), ev_at("sp2", 1, 0)],
        )
        .unwrap();
        // ...but within one partition batch order still binds.
        let err = check_schedule(&g, &[ev_at("sp1", 2, 1), ev_at("sp1", 1, 1)]).unwrap_err();
        assert!(matches!(err, Error::StreamViolation(_)));
        // Workflow order binds per partition too.
        let err =
            check_schedule(&g, &[ev_at("sp2", 1, 1), ev_at("sp1", 1, 1)]).unwrap_err();
        assert!(matches!(err, Error::StreamViolation(_)));
    }

    #[test]
    fn workflow_order_violation_caught() {
        let g = linear3();
        let err = check_schedule(&g, &[ev("sp2", 1), ev("sp1", 1)]).unwrap_err();
        assert!(matches!(err, Error::StreamViolation(_)));
    }

    #[test]
    fn oltp_interleaves_freely() {
        let g = linear3();
        check_schedule(
            &g,
            &[
                ev("sp1", 1),
                TraceEvent { proc: "oltp_report".into(), batch: None, partition: 0 },
                ev("sp2", 1),
                ev("sp3", 1),
            ],
        )
        .unwrap();
    }

    #[test]
    fn nested_contiguity() {
        let group = vec!["a".to_string(), "b".to_string()];
        check_nested_contiguity(&[ev("a", 1), ev("b", 1), ev("a", 2), ev("b", 2)], &group).unwrap();
        assert!(check_nested_contiguity(
            &[ev("a", 1), ev("x", 1), ev("b", 1)],
            &group
        )
        .is_err());
        assert!(check_nested_contiguity(&[ev("a", 1), ev("b", 2)], &group).is_err());
    }
}
