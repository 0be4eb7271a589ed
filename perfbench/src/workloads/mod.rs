//! The four workloads and what they share: run arguments, the report
//! they fill in, the engine configuration every timed phase uses, and
//! the counter snapshot the per-layer ledger takes deltas of.

use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

use sstore_engine::metrics::EngineMetrics;
use sstore_engine::{Engine, EngineConfig, LoggingConfig};

use crate::stats;

pub mod hybrid_scan;
pub mod linearroad_batch;
pub mod voter_input;
pub mod voter_recovery;
pub mod voter_wire;

/// Size of a run. Everything a workload does is a fixed function of
/// these and the constants in its module — never of the host — so the
/// same arguments mean the same work on both sides of a comparison.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Nominal measured time. Fixed-count phases are sized as
    /// `seconds × a per-second constant calibrated once`; a phase on a
    /// schedule lasts exactly this long.
    pub seconds: f64,
    /// 1 for a measuring run; the smoke share for `--smoke` and tests.
    /// Shrinks the counts that do not already follow `seconds`
    /// (warm-up, preload, burst and probe sizes).
    pub scale: f64,
    pub trace: bool,
    /// Where the traced run writes `trace-<workload>.jsonl`.
    pub out_dir: std::path::PathBuf,
    /// Least number of set-ups behind the `setup_s` median (1 under
    /// `--smoke`, where nothing is measured).
    pub setup_reps: usize,
}

impl RunArgs {
    /// `n` per second of nominal run time, at least `floor`.
    pub fn count(&self, per_second: f64, floor: u64) -> u64 {
        ((per_second * self.seconds).round() as u64).max(floor)
    }

    /// A fixed count at full scale, shrunk under `--smoke`.
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(1)
    }
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// One metric as reported: name, value, samples behind it.
pub type Reported = (&'static str, f64, u64);

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub e2e: Vec<Reported>,
    pub layer: Vec<Reported>,
    /// Figures worth printing that are not registry metrics: they do
    /// not exist on every workload, or cannot vary between runs.
    pub notes: Vec<String>,
}

impl Report {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_owned(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, engine: T, model: T) {
        let ok = engine == model;
        let detail = if ok {
            String::new()
        } else {
            let (e, m) = (format!("{engine:?}"), format!("{model:?}"));
            let clip = |s: String| {
                if s.len() > 300 {
                    format!("{}…", &s[..300])
                } else {
                    s
                }
            };
            format!("engine {} ≠ model {}", clip(e), clip(m))
        };
        self.check(name, ok, detail);
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// The flush policy of every timed phase, stated in BENCHMARK.json's
/// README: logging on, group commit of 8, fsync off (the sandbox's
/// fsync measures the host's disk; it is reported once, as a layer
/// probe), default `Block` admission with 1024 credits, inline EE.
pub fn engine_config(tag: &str, partitions: usize) -> EngineConfig {
    EngineConfig::default()
        .with_partitions(partitions)
        .with_data_dir(crate::host::fresh_dir(tag))
        .with_logging(LoggingConfig {
            enabled: true,
            group_commit: 8,
            fsync: false,
            ..LoggingConfig::default()
        })
}

/// Shuts an engine down and removes its data directory.
pub fn discard(engine: Engine) {
    let dir = engine.config().data_dir.clone();
    engine.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// Set-ups are repeated until this much time has gone into them (but
/// at least `RunArgs::setup_reps` and at most `SETUP_MAX_REPS` times):
/// a 60 ms set-up read three times swings by half between runs; read
/// fifteen times it does not.
const SETUP_BUDGET_S: f64 = 1.5;
const SETUP_MAX_REPS: usize = 15;

/// Runs `build` repeatedly, tearing every instance down but the last,
/// and returns that one, adding each build time in seconds to `times`.
pub fn timed_setups<T>(
    min_reps: usize,
    mut build: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
    times: &mut Vec<f64>,
) -> T {
    let mut last = None;
    let mut done = 0;
    let started = Instant::now();
    while done < min_reps.max(1)
        || (min_reps > 1
            && done < SETUP_MAX_REPS
            && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
        done += 1;
    }
    last.expect("at least one set-up")
}

/// [`timed_setups`] for a workload that sets up in one place: the
/// instance, the median build time and the number of set-ups behind it.
pub fn median_setup<T>(
    min_reps: usize,
    build: impl FnMut() -> T,
    teardown: impl FnMut(T),
) -> (T, f64, u64) {
    let mut times = Vec::new();
    let last = timed_setups(min_reps, build, teardown, &mut times);
    (last, stats::median(&mut times), times.len() as u64)
}

/// (p50, tail at `wanted_tail` or the highest percentile the sample
/// supports below it, max, samples) of latencies in µs. Sorts them.
pub fn latency_summary(latency_us: &mut [f64], wanted_tail: f64) -> (f64, f64, f64, u64) {
    latency_us.sort_by(f64::total_cmp);
    let n = latency_us.len();
    let p = stats::tail_at_most(n, wanted_tail);
    (
        stats::percentile(latency_us, 50.0),
        stats::percentile(latency_us, p),
        latency_us.last().copied().unwrap_or(f64::NAN),
        n as u64,
    )
}

/// Latencies of one open-loop phase, µs, with the generator's slip and
/// the backlog seen at each send.
#[derive(Debug, Default)]
pub struct PacedLog {
    pub latency_us: Vec<f64>,
    pub slip_us: Vec<f64>,
    pub backlog_ops: Vec<f64>,
}

impl PacedLog {
    pub fn with_capacity(n: usize) -> Self {
        PacedLog {
            latency_us: Vec::with_capacity(n),
            slip_us: Vec::with_capacity(n),
            backlog_ops: Vec::with_capacity(n),
        }
    }

    pub fn summary(&mut self, wanted_tail: f64) -> (f64, f64, f64, u64) {
        latency_summary(&mut self.latency_us, wanted_tail)
    }

    pub fn slip_p99_us(&self) -> f64 {
        let mut s = self.slip_us.clone();
        s.sort_by(f64::total_cmp);
        stats::percentile(&s, stats::tail_at_most(s.len(), 99.0))
    }
}

/// The `EngineMetrics` counters the ledger reports deltas of.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub txns_committed: u64,
    pub txns_aborted: u64,
    pub log_records: u64,
    pub log_flushes: u64,
    pub ee_round_trips: u64,
    pub pe_trigger_fires: u64,
    pub ee_trigger_fires: u64,
    pub columnar_batches: u64,
    pub columnar_window_batches: u64,
    pub fallback_small: u64,
    pub fallback_shape: u64,
    pub adhoc_hits: u64,
    pub adhoc_misses: u64,
    pub window_slides: u64,
    pub late_merged: u64,
    pub late_dropped: u64,
    pub shed: u64,
    pub gc_segments: u64,
}

impl Counters {
    pub fn read(engine: &Engine) -> Counters {
        let m: &EngineMetrics = engine.metrics();
        Counters {
            txns_committed: m.txns_committed.load(Relaxed),
            txns_aborted: m.txns_aborted.load(Relaxed),
            log_records: m.log_records.load(Relaxed),
            log_flushes: m.log_flushes.load(Relaxed),
            ee_round_trips: m.ee_round_trips.load(Relaxed),
            pe_trigger_fires: m.pe_trigger_fires.load(Relaxed),
            ee_trigger_fires: m.ee_trigger_fires.load(Relaxed),
            columnar_batches: m.columnar_batches.load(Relaxed),
            columnar_window_batches: m.columnar_window_batches.load(Relaxed),
            fallback_small: m.columnar_fallback_small.load(Relaxed),
            fallback_shape: m.columnar_fallback_shape.load(Relaxed),
            adhoc_hits: m.adhoc_plan_hits.load(Relaxed),
            adhoc_misses: m.adhoc_plan_misses.load(Relaxed),
            window_slides: m.window_slides.load(Relaxed),
            late_merged: m.window_late_merged.load(Relaxed),
            late_dropped: m.window_late_dropped.load(Relaxed),
            shed: m.shed_batches.load(Relaxed),
            gc_segments: m.gc_segments_deleted.load(Relaxed),
        }
    }

    /// `self - earlier`, field by field, added onto `acc` (a workload
    /// that goes through several engine instances sums their deltas).
    pub fn add_delta_since(&self, earlier: &Counters, acc: &mut Counters) {
        macro_rules! fields {
            ($($f:ident),*) => {$( acc.$f += self.$f - earlier.$f; )*};
        }
        fields!(
            txns_committed,
            txns_aborted,
            log_records,
            log_flushes,
            ee_round_trips,
            pe_trigger_fires,
            ee_trigger_fires,
            columnar_batches,
            columnar_window_batches,
            fallback_small,
            fallback_shape,
            adhoc_hits,
            adhoc_misses,
            window_slides,
            late_merged,
            late_dropped,
            shed,
            gc_segments
        );
    }
}

/// What a workload hands the per-layer ledger after its phases: the
/// end-to-end figures the ledger relates layer costs to, and the
/// counts only the workload can take.
#[derive(Debug, Default)]
pub struct PhaseFacts {
    pub counters: Counters,
    pub latency_p50_us: f64,
    pub latency_tail_us: f64,
    pub latency_max_us: f64,
    pub second_tail_us: f64,
    pub trace_overhead_frac: f64,
    pub max_in_flight: u64,
    pub server_requests: u64,
    /// Border batches behind `counters` (for per-operation shares).
    pub border_ops: u64,
    pub log_segments: u64,
    pub rss_growth_mb: f64,
}

/// Log segment files under an engine's data directory.
pub fn log_segments_on_disk(config: &EngineConfig) -> u64 {
    std::fs::read_dir(&config.data_dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".cmdlog"))
            .count() as u64
    })
}

/// Notes the engine's own border-class latency histogram. Its buckets
/// are powers of two, so the figure is the same on every run until it
/// doubles; it is printed as the engine reports it and never used for a
/// metric.
pub fn note_engine_histogram(report: &mut Report, engine: &Engine) {
    let l = engine
        .metrics()
        .class_latency(sstore_engine::TxnClass::Border);
    report.note(format!(
        "engine border class: queue_wait_p50={:?} execution_p50={:?} end_to_end_p99={:?} (n={})",
        l.queue_wait.p50, l.execution.p50, l.end_to_end.p99, l.end_to_end.count
    ));
}

/// `1 - traced/untraced` of two sets of rates from one run; 0 when a
/// run is too short to hold both kinds (smoke size), which measures
/// nothing either way.
pub fn trace_overhead(traced: &mut [f64], untraced: &mut [f64]) -> f64 {
    let (t, u) = (stats::median(traced), stats::median(untraced));
    if t.is_finite() && u.is_finite() && u > 0.0 {
        1.0 - t / u
    } else {
        0.0
    }
}

/// Runs one workload by name.
pub fn run(name: &str, args: &RunArgs) -> Option<Report> {
    Some(match name {
        "voter_wire" => voter_wire::run(args),
        "linearroad_batch" => linearroad_batch::run(args),
        "hybrid_scan" => hybrid_scan::run(args),
        "voter_recovery" => voter_recovery::run(args),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{END_TO_END, PER_LAYER, WORKLOADS};

    fn smoke(trace: bool) -> RunArgs {
        RunArgs {
            seed: 5,
            seconds: 12.0 * crate::SMOKE_SCALE,
            scale: crate::SMOKE_SCALE,
            trace,
            out_dir: crate::host::fresh_dir("smoke-out"),
            setup_reps: 1,
        }
    }

    /// Every check but the pacing guard: a debug build under a parallel
    /// test run cannot keep an open-loop schedule, and is not measured.
    fn functional_failures(r: &Report) -> Vec<String> {
        r.checks
            .iter()
            .filter(|c| !c.ok && c.name != "backlog_not_growing")
            .map(|c| format!("{}: {}", c.name, c.detail))
            .collect()
    }

    fn assert_reports_all(workload: &str, table: &[crate::registry::Metric], got: &[Reported]) {
        for m in table {
            let v = got.iter().find(|(n, _, _)| *n == m.name).map(|r| r.1);
            assert!(
                v.is_some_and(f64::is_finite),
                "{workload}: {} reported as {v:?}",
                m.name
            );
        }
        assert_eq!(
            got.len(),
            table.len(),
            "{workload}: metrics outside the registry"
        );
    }

    /// Runs every workload end to end at 1/50 size: breaks when a public
    /// API the driver calls changes, or a model and the engine disagree.
    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for w in WORKLOADS {
            let r = run(w.name, &smoke(false)).expect("registered workload");
            assert_eq!(functional_failures(&r), Vec::<String>::new(), "{}", w.name);
            assert_eq!(r.failed, 0, "{}", w.name);
            assert!(r.attempted > 0);
            assert_reports_all(w.name, &END_TO_END, &r.e2e);
        }
    }

    #[test]
    fn traced_smoke_reports_every_per_layer_metric_and_writes_spans() {
        for w in WORKLOADS {
            let args = smoke(true);
            let r = run(w.name, &args).expect("registered workload");
            assert_eq!(functional_failures(&r), Vec::<String>::new(), "{}", w.name);
            assert_reports_all(w.name, &PER_LAYER, &r.layer);
            let trace = args.out_dir.join(format!("trace-{}.jsonl", w.name));
            let text = std::fs::read_to_string(&trace).expect("trace file written");
            let first = text.lines().next().expect("at least one span");
            let span = crate::json::Json::parse(first).expect("a JSON line");
            for key in ["thread", "name", "start_ns", "end_ns", "parent", "op"] {
                assert!(span.get(key).is_some(), "span lacks {key}: {first}");
            }
            let _ = std::fs::remove_dir_all(&args.out_dir);
        }
    }

    #[test]
    fn voter_model_agrees_with_the_engine_on_5k_votes() {
        let (votes, model) = voter_input::generate(11, 5_000, 1, 0);
        let engine = Engine::start(
            engine_config("model-test", 1),
            sstore_workloads::voter::leaderboard_app(true),
        )
        .expect("engine start");
        sstore_workloads::voter::seed(&engine, voter_input::CONTESTANTS).expect("seed");
        for v in &votes {
            engine.ingest("votes_in", vec![v.tuple()]).expect("ingest");
        }
        engine.drain().expect("drain");
        assert_eq!(
            voter_input::read_state(&engine),
            voter_input::model_state(&model)
        );
        assert_eq!(model.deletions, 4, "4 950 valid votes cross four thousands");
        assert!(
            model.rejected > 0,
            "the generator's duplicates were rejected"
        );
        let dir = engine.config().data_dir.clone();
        engine.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}
