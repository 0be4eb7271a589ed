//! The one table of workloads and metrics the driver reports from, and
//! its agreement with `BENCHMARK.json`.
//!
//! Every workload reports every end-to-end metric (untraced run) and
//! every per-layer metric (traced run), so the end-to-end names are
//! roles — the workload's throughput, its primary latency, its second
//! operation — and [`Workload::roles`] says what fills each role.
//! Regression bounds live only in `BENCHMARK.json` (embedded at build
//! time); names, units and directions live in both and must agree.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub about: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// What `throughput_per_s`, `latency_p50_us` (and its tail) and
    /// `second_p50_us` measure on this workload.
    pub roles: [&'static str; 3],
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "voter_wire",
        roles: [
            "votes committed per second, pipelined 1-vote batches over TCP, median burst",
            "sync vote over TCP, send to acknowledgement, one client back to back (p50, p99)",
            "leaderboard top-3 read in the same closed loop, every 25th operation (p50)",
        ],
    },
    Workload {
        name: "linearroad_batch",
        roles: [
            "position reports committed per second, 250-report batches in-process, median burst",
            "ingest_sync of one batch, call to return, one caller back to back (p50, p99)",
            "account-balance read (tolls by vehicle) with Engine::query, ten after every tick (p50)",
        ],
    },
    Workload {
        name: "hybrid_scan",
        roles: [
            "tuples committed per second by the closed-loop writer beside a fixed reader, median slice",
            "analytic scan over 220k rows over TCP: due time to rows decoded, 8/s (mean of the four shapes' medians; highest supported tail)",
            "prepared point lookup over TCP: due time to rows decoded, 96/s (p50)",
        ],
    },
    Workload {
        name: "voter_recovery",
        roles: [
            "votes per second of ingest plus checkpoint time, logging on, median cycle of all epochs",
            "Engine::checkpoint after drain (mean over the five places in the image chain of that place's median; highest supported tail)",
            "recovery::recover from checkpoint chain plus log suffix (mean of the five places' medians)",
        ],
    },
];

const fn m(name: &'static str, unit: &'static str, better: Better, about: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        about,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [Metric; 5] = [
    m(
        "setup_s",
        "s",
        Lower,
        "start engine (and server), load, fixed-count warm-up; median of 3 to 16 set-ups",
    ),
    m(
        "peak_rss_mb",
        "MB",
        Lower,
        "VmHWM when the measured phases end",
    ),
    m(
        "throughput_per_s",
        "1/s",
        Higher,
        "the workload's unit of work per second (see roles)",
    ),
    m(
        "latency_p50_us",
        "us",
        Lower,
        "median of the workload's primary latency (from the due time where there is a schedule)",
    ),
    m(
        "second_p50_us",
        "us",
        Lower,
        "median latency of the workload's second operation",
    ),
];

/// Per-layer metrics, layer-prefixed. Timings are of public calls made
/// from the driver on the workload's own inputs; counts are exact
/// deltas of the public `EngineMetrics`/`ServerMetrics` counters over
/// the measured phases.
pub const PER_LAYER: [Metric; 87] = [
    // server.protocol — frame codec on the workload's own messages
    m("server.protocol.req_encode_ns", "ns", Lower, "Request::encode + write_frame into a Vec, per request"),
    m("server.protocol.req_decode_ns", "ns", Lower, "read_frame + Request::decode, per request"),
    m("server.protocol.resp_encode_ns", "ns", Lower, "Response::encode + write_frame, per response"),
    m("server.protocol.resp_decode_ns", "ns", Lower, "read_frame + Response::decode, per response"),
    m("server.protocol.req_bytes", "B", Lower, "mean request frame size"),
    m("server.protocol.resp_bytes", "B", Lower, "mean response frame size"),
    // server.session
    m("server.session.ping_rtt_us", "us", Lower, "Client::ping round trip on loopback, median"),
    m("server.session.edge_overhead_us", "us", Lower, "sync ingest p50 over TCP minus the same call in-process"),
    m("server.session.requests", "count", Higher, "ServerMetrics.requests delta over the measured phases"),
    // engine.admission
    m("engine.admission.acquire_release_ns", "ns", Lower, "AdmissionGate::try_acquire + drop"),
    m("engine.admission.max_in_flight", "count", Lower, "largest admitted_in_flight seen at an acknowledgement"),
    m("engine.admission.shed", "count", Lower, "shed_batches delta"),
    // engine.partition
    m("engine.partition.noop_call_us", "us", Lower, "Engine::call_at of an empty procedure, logging on"),
    m("engine.partition.txns_committed", "count", Higher, "txns_committed delta"),
    m("engine.partition.split_ns_per_tuple", "ns", Lower, "split_by_key over the workload's batches"),
    m("engine.partition.p1_inproc_per_s", "1/s", Higher, "the workload's input through Engine::ingest on one partition, no wire"),
    // engine.scheduler
    m("engine.scheduler.pe_hop_us", "us", Lower, "(pe_chain(10) - pe_chain(1)) / 9 per batch"),
    m("engine.scheduler.pe_trigger_fires", "count", Higher, "pe_trigger_fires delta"),
    // engine.ee
    m("engine.ee.txn_us", "us", Lower, "the border procedure's statements for one input tuple on a standalone EE: begin, exec, commit"),
    m("engine.ee.begin_commit_ns", "ns", Lower, "empty begin + commit on a standalone EE"),
    m("engine.ee.abort_us", "us", Lower, "same statements, then abort (undo)"),
    m("engine.ee.trigger_hop_ns", "ns", Lower, "(ee_chain(10) - ee_chain(0)) / 10 per tuple"),
    m("engine.ee.ee_trigger_fires", "count", Higher, "ee_trigger_fires delta"),
    m("engine.ee.round_trips", "count", Lower, "ee_round_trips delta"),
    // engine.boundary
    m("engine.boundary.channel_hop_us", "us", Lower, "ee_chain(10) under Channel minus Inline, per round trip"),
    // engine.window
    m("engine.window.slides", "count", Higher, "window_slides delta"),
    m("engine.window.slide_us", "us", Lower, "process_slides of one 1000-row extent with a GROUP BY trigger, standalone EE"),
    m("engine.window.insert_ns", "ns", Lower, "INSERT into a time window (stage), per row"),
    m("engine.window.late_merged", "count", Lower, "window_late_merged delta"),
    m("engine.window.late_dropped", "count", Lower, "window_late_dropped delta"),
    // engine.log
    m("engine.log.append_ns", "ns", Lower, "CommandLog::append_border of the workload's batches, per record"),
    m("engine.log.flush_us", "us", Lower, "CommandLog::flush of 8 records, fsync off"),
    m("engine.log.fsync_us", "us", Lower, "the same flush with fsync on (the sandbox's disk)"),
    m("engine.log.records", "count", Lower, "log_records delta"),
    m("engine.log.flushes", "count", Lower, "log_flushes delta"),
    m("engine.log.bytes_per_op", "B", Lower, "log bytes appended per unit of work"),
    m("engine.log.segments", "count", Lower, "log segments on disk when the phases end"),
    // engine.checkpoint
    m("engine.checkpoint.base_ms", "ms", Lower, "Engine::checkpoint writing a base image of the workload's state"),
    m("engine.checkpoint.delta_ms", "ms", Lower, "Engine::checkpoint writing a delta after 20 more batches"),
    m("engine.checkpoint.bytes", "B", Lower, "bytes of that base image"),
    m("engine.checkpoint.gc_segments", "count", Higher, "gc_segments_deleted delta"),
    // engine.recovery
    m("engine.recovery.restore_ms", "ms", Lower, "ExecutionEngine::restore_chain of base + delta"),
    m("engine.recovery.replay_records", "count", Lower, "RecoveryReport.records_replayed of a strong recover"),
    m(
        "engine.recovery.recover_ms",
        "ms",
        Lower,
        "recovery::recover of the live engine: restore the chain, replay the suffix, restart",
    ),
    m("engine.recovery.weak_recover_ms", "ms", Lower, "recover of the same suffix logged and replayed in weak mode"),
    // sql.parser / sql.plan
    m("sql.parser.parse_us", "us", Lower, "sql::parse over the workload's statements, mean"),
    m("sql.plan.plan_us", "us", Lower, "Planner::plan over the parsed statements, mean"),
    m("sql.plan.adhoc_hit_ratio", "ratio", Higher, "adhoc_plan_hits / (hits + misses) over the measured phases"),
    // sql.exec
    m("sql.exec.point_select_ns", "ns", Lower, "sql::execute of an indexed point SELECT on the workload's table"),
    m("sql.exec.insert_ns", "ns", Lower, "sql::execute of a one-row INSERT"),
    m("sql.exec.update_ns", "ns", Lower, "sql::execute of an indexed one-row UPDATE"),
    m("sql.exec.delete_ns", "ns", Lower, "sql::execute of an indexed one-row DELETE"),
    m("sql.exec.rowwise_filter_count_ns_per_row", "ns", Lower, "row-at-a-time COUNT(*) WHERE over the scan table"),
    // sql.vexec / sql.batch
    m("sql.vexec.filter_count_ns_per_row", "ns", Lower, "columnar COUNT(*) WHERE over the scan table"),
    m("sql.vexec.agg_filtered_ns_per_row", "ns", Lower, "columnar SUM/COUNT with a two-term filter"),
    m("sql.vexec.group_by_100_ns_per_row", "ns", Lower, "columnar GROUP BY over ~100 groups"),
    m("sql.vexec.topk_ns_per_row", "ns", Lower, "columnar ORDER BY … LIMIT 10"),
    m("sql.vexec.window_extent_ns_per_row", "ns", Lower, "grouped aggregate over a 1000-row window extent"),
    m("sql.batch.transpose_ns_per_row", "ns", Lower, "ColumnarBatch::from_rows over Table::scan_chunks alone"),
    m("sql.vexec.batches", "count", Higher, "columnar_batches delta"),
    m("sql.vexec.window_batches", "count", Higher, "columnar_window_batches delta"),
    m("sql.vexec.fallback_small", "count", Lower, "columnar_fallback_small delta"),
    m("sql.vexec.fallback_shape", "count", Lower, "columnar_fallback_shape delta"),
    // storage.table
    m("storage.table.insert_ns", "ns", Lower, "Table::insert on a copy of the workload's largest table"),
    m("storage.table.get_ns", "ns", Lower, "Table::get by row id"),
    m("storage.table.update_ns", "ns", Lower, "Table::update by row id"),
    m("storage.table.delete_ns", "ns", Lower, "Table::delete by row id"),
    m("storage.table.scan_ns_per_row", "ns", Lower, "Table::scan_chunks over every row"),
    m("storage.table.rows", "count", Lower, "rows in the workload's largest table when the phases end"),
    // storage.index
    m("storage.index.hash_lookup_ns", "ns", Lower, "Table::lookup_eq through a hash index"),
    m("storage.index.btree_lookup_ns", "ns", Lower, "Table::lookup_eq through a B-tree index"),
    m("storage.index.insert_ns", "ns", Lower, "Index::insert"),
    // storage.snapshot
    m("storage.snapshot.write_ms", "ms", Lower, "snapshot::encode_catalog of the workload's tables"),
    m("storage.snapshot.read_ms", "ms", Lower, "snapshot::decode_catalog of that image"),
    m("storage.snapshot.bytes", "B", Lower, "size of that image"),
    // common.codec
    m("common.codec.encode_ns_per_tuple", "ns", Lower, "Encoder::put_tuple over the workload's tuples"),
    m("common.codec.decode_ns_per_tuple", "ns", Lower, "Decoder::get_tuple over them"),
    // bench — the driver's own view
    m("bench.span.submit_us", "us", Lower, "median self time of the driver's spans that hand work to the program: encode and send, or an in-process ingest call"),
    m("bench.span.wait_us", "us", Lower, "median self time of its spans that wait for the program: recv, or drain"),
    m("bench.spans_recorded", "count", Higher, "spans written to the trace file"),
    m("bench.attributed_us", "us", Lower, "sum of isolated layer costs for one primary operation"),
    m("bench.unattributed_us", "us", Lower, "primary latency p50 minus bench.attributed_us"),
    m("bench.trace_overhead_frac", "ratio", Lower, "1 - traced/untraced median burst throughput, alternated in one run"),
    m("bench.latency_tail_us", "us", Lower, "tail of the primary latency (p99, or the highest percentile with ten samples beyond it); on shared cores it spreads wider than any bound, so it is reported here and not gated"),
    m("bench.latency_max_us", "us", Lower, "largest primary latency seen"),
    m("bench.second_tail_us", "us", Lower, "tail of the second operation at its highest supported percentile"),
    m("bench.rss_growth_mb", "MB", Lower, "VmHWM growth from end of set-up to end of phases"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The benchmark definition this binary was built against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Bounds(Vec<(String, f64)>);

impl Bounds {
    pub fn of(&self, metric: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == metric).map(|(_, b)| *b)
    }
}

/// Checks the registry's own shape and its agreement with
/// `BENCHMARK.json`; returns the end-to-end bounds on success and every
/// violation found otherwise.
pub fn validate(benchmark_json: &str) -> Result<Bounds, Vec<String>> {
    let mut errs = Vec::new();
    if WORKLOADS.len() > 8 {
        errs.push(format!("{} workloads (at most 8)", WORKLOADS.len()));
    }
    if END_TO_END.len() > 16 {
        errs.push(format!(
            "{} end-to-end metrics (at most 16)",
            END_TO_END.len()
        ));
    }
    if PER_LAYER.len() > 128 {
        errs.push(format!(
            "{} per-layer metrics (at most 128)",
            PER_LAYER.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name));
    for n in names {
        if !name_ok(n) {
            errs.push(format!(
                "name {n:?} has a character outside letters, digits, '_', '.', '-'"
            ));
        }
        if !seen.insert(n) {
            errs.push(format!("name {n:?} is used twice"));
        }
    }
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if !unit_ok(m.unit) {
            errs.push(format!("unit {:?} of {} is not allowed", m.unit, m.name));
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower)
    {
        errs.push("no setup_s (s, lower) end-to-end metric".into());
    }

    let mut bounds = Vec::new();
    match Json::parse(benchmark_json) {
        Err(e) => errs.push(format!("BENCHMARK.json does not parse: {e}")),
        Ok(doc) => {
            let listed = |key: &str| -> Vec<&Json> {
                doc.get(key)
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().collect())
                    .unwrap_or_default()
            };
            let field =
                |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
            let json_workloads: Vec<String> = listed("workloads")
                .iter()
                .map(|w| field(w, "name"))
                .collect();
            let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
            if json_workloads != ours {
                errs.push(format!(
                    "workloads differ: BENCHMARK.json {json_workloads:?}, registry {ours:?}"
                ));
            }
            for (key, table) in [
                ("end_to_end", &END_TO_END[..]),
                ("per_layer", &PER_LAYER[..]),
            ] {
                let entries = listed(key);
                if entries.len() != table.len() {
                    errs.push(format!(
                        "{key}: BENCHMARK.json lists {} metrics, registry {}",
                        entries.len(),
                        table.len()
                    ));
                }
                for (j, m) in entries.iter().zip(table) {
                    let (n, u, b) = (field(j, "name"), field(j, "unit"), field(j, "better"));
                    if n != m.name || u != m.unit || b != m.better.as_str() {
                        errs.push(format!(
                            "{key}: BENCHMARK.json has {n} ({u}, {b}), registry {} ({}, {})",
                            m.name,
                            m.unit,
                            m.better.as_str()
                        ));
                    }
                    if key == "end_to_end" {
                        match j.get("bound").and_then(Json::as_f64) {
                            Some(b) if b > 0.0 && b <= 0.25 => bounds.push((n, b)),
                            other => errs.push(format!("{n}: bound {other:?} not in (0, 0.25]")),
                        }
                    }
                }
            }
            if doc.get("claim").is_some() {
                errs.push("BENCHMARK.json has a key the contract does not allow: claim".into());
            }
        }
    }
    if errs.is_empty() {
        Ok(Bounds(bounds))
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_and_benchmark_json_agree() {
        if let Err(errs) = validate(BENCHMARK_JSON) {
            panic!("{}", errs.join("\n"));
        }
    }

    #[test]
    fn bad_names_units_and_disagreements_are_reported() {
        assert!(name_ok("engine.log.append_ns") && name_ok("9lives"));
        assert!(!name_ok("") && !name_ok(".x") && !name_ok("a b") && !name_ok("µs"));
        assert!(unit_ok("1/s") && unit_ok("%") && !unit_ok("µs") && !unit_ok(""));
        let errs = validate(r#"{"workloads":[{"name":"only"}],"end_to_end":[],"per_layer":[]}"#)
            .err()
            .expect("must disagree");
        assert!(errs.iter().any(|e| e.contains("workloads differ")));
        assert!(errs.iter().any(|e| e.contains("end_to_end")));
    }
}
