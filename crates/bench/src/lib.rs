//! The repo's one bench driver (`sstore-bench <case>`): the paper's
//! evaluation (§4, Figures 5–11) and the engine's own probes, over one
//! harness, one report type and one writer.
//!
//! This file is the harness: the engine-driving loops every case
//! shares, the [`Report`] a case returns, its text and JSON rendering,
//! and the [`Gate`] evaluator. The cases are in [`cases`]. Absolute
//! numbers differ from the paper's 2015 Xeon testbed (EXPERIMENTS.md);
//! the harness is about *shapes* — who wins, by what factor, where
//! crossovers fall — which is why every gate is an invariant or a ratio
//! of two things measured alternately in the same process.

use std::cell::Cell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::time::{Duration, Instant};

use sstore_common::Tuple;
use sstore_engine::admission::TxnClass;
use sstore_engine::metrics::ClassLatency;
use sstore_engine::{App, Engine, EngineConfig};

pub mod cases;

/// The driver's two size options. `secs` is the length of each timed
/// run of a time-based case, `scale` multiplies the default size of a
/// count-based one; each case uses the one that applies to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// `--secs`, or `None` for the case's default.
    pub secs: Option<f64>,
    /// `--scale`, 1.0 by default.
    pub scale: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params { secs: None, scale: 1.0 }
    }
}

impl Params {
    /// `--secs` if given, else the case's `default`.
    pub fn secs_or(&self, default: f64) -> f64 {
        self.secs.unwrap_or(default)
    }

    /// A default count multiplied by `--scale`, at least 1.
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(1)
    }
}

/// A named series of `(x, y)` points: one column of a figure's table.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series label (e.g. `"S-Store"`).
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

/// One of the paper's plots: series over a shared x axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Table heading.
    pub title: String,
    /// Heading of the x column.
    pub x_label: String,
    /// What the y values are, printed under the title.
    pub y_label: String,
    /// One column each.
    pub series: Vec<Series>,
}

impl Figure {
    /// A two-series figure: `measure(x)` gives both series' y at `x`.
    pub fn sweep(
        [title, x_label, y_label]: [&str; 3],
        labels: [&str; 2],
        xs: &[f64],
        mut measure: impl FnMut(f64) -> [f64; 2],
    ) -> Figure {
        let mut series = labels.map(|l| Series { label: l.to_owned(), points: Vec::new() });
        for &x in xs {
            for (s, y) in series.iter_mut().zip(measure(x)) {
                s.points.push((x, y));
            }
        }
        Figure {
            title: title.to_owned(),
            x_label: x_label.to_owned(),
            y_label: y_label.to_owned(),
            series: series.into(),
        }
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Stable name; gates and readers look rows up by it.
    pub name: String,
    /// The measurement.
    pub value: f64,
    /// Its unit (`"tuples/s"`, `"us"`, `"count"`, …).
    pub unit: String,
}

/// One evaluated gate or invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// The values it was decided on.
    pub detail: String,
}

/// What every case returns and the one writer renders.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// The subcommand that produced it.
    pub case: String,
    /// The sizes it ran at (after `--secs` / `--scale`).
    pub params: Vec<(String, f64)>,
    /// The paper's plots, if the case has any.
    pub figures: Vec<Figure>,
    /// Scalar measurements.
    pub rows: Vec<Row>,
    /// Gates and invariants, evaluated.
    pub checks: Vec<Check>,
}

impl Report {
    /// Empty report for `case`, run at `params`.
    pub fn new(case: &str, params: &[(&str, f64)]) -> Report {
        Report {
            case: case.to_owned(),
            params: params.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            ..Report::default()
        }
    }

    /// Adds a measurement.
    pub fn row(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.rows.push(Row { name: name.into(), value, unit: unit.to_owned() });
    }

    /// The value of the row called `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// Adds a boolean invariant the case evaluated itself.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.to_owned(), pass, detail: detail.into() });
    }

    /// Evaluates `gates` against the rows and records the outcomes.
    pub fn apply(&mut self, gates: &[Gate]) {
        let checks: Vec<Check> = gates.iter().map(|g| g.eval(self)).collect();
        self.checks.extend(checks);
    }

    /// True when no check failed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The report as aligned tables: each figure as one row per x and
    /// one column per series (plus their ratio when there are exactly
    /// two), then the scalar rows, then the checks.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        for fig in &self.figures {
            let _ = writeln!(w, "\n== {} ==\n   ({})", fig.title, fig.y_label);
            if fig.series.is_empty() {
                continue;
            }
            let _ = write!(w, "{:>12}", fig.x_label);
            for s in &fig.series {
                let _ = write!(w, " {:>16}", s.label);
            }
            if fig.series.len() == 2 {
                let _ = write!(w, " {:>10}", "ratio");
            }
            let _ = writeln!(w);
            let n = fig.series.iter().map(|s| s.points.len()).max().unwrap_or(0);
            for i in 0..n {
                let x = fig.series.iter().find_map(|s| s.points.get(i)).map_or(f64::NAN, |p| p.0);
                let _ = write!(w, "{x:>12.1}");
                for s in &fig.series {
                    match s.points.get(i) {
                        Some((_, y)) => write!(w, " {y:>16.1}"),
                        None => write!(w, " {:>16}", "-"),
                    }
                    .ok();
                }
                if let [a, b] = &fig.series[..] {
                    if let (Some(a), Some(b)) = (a.points.get(i), b.points.get(i)) {
                        if b.1 > 0.0 {
                            let _ = write!(w, " {:>10.2}", a.1 / b.1);
                        }
                    }
                }
                let _ = writeln!(w);
            }
        }
        if self.figures.is_empty() {
            let params: Vec<String> =
                self.params.iter().map(|(k, v)| format!("{k} = {v}")).collect();
            let _ = writeln!(w, "\n== {} ==\n   ({})", self.case, params.join(", "));
        }
        for r in &self.rows {
            let digits = if r.value.abs() >= 100.0 { 1 } else { 3 };
            let _ = writeln!(w, "{:>34}: {:>12.digits$} {}", r.name, r.value, r.unit);
        }
        for c in &self.checks {
            let verdict = if c.pass { "ok" } else { "FAIL" };
            let _ = writeln!(w, "  {verdict:<4} {}: {}", c.name, c.detail);
        }
        out
    }

    /// The report as one line of JSON — the one schema every case
    /// shares: `case`, `params` (object), `figures` (title, labels,
    /// series of `[x, y]` points), `rows` (name, value, unit), `checks`
    /// (name, pass, detail). A non-finite value is written as `null`.
    pub fn to_json(&self) -> String {
        fn string(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' | '\\' => out.extend(['\\', c]),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out + "\""
        }
        fn number(v: f64) -> String {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".to_owned()
            }
        }
        fn list<T>(items: &[T], each: impl Fn(&T) -> String) -> String {
            format!("[{}]", items.iter().map(each).collect::<Vec<_>>().join(", "))
        }
        let params: Vec<String> =
            self.params.iter().map(|(k, v)| format!("{}: {}", string(k), number(*v))).collect();
        let series = |s: &Series| {
            let points = list(&s.points, |(x, y)| format!("[{}, {}]", number(*x), number(*y)));
            format!(r#"{{"label": {}, "points": {points}}}"#, string(&s.label))
        };
        let figures = list(&self.figures, |f| {
            format!(
                r#"{{"title": {}, "x_label": {}, "y_label": {}, "series": {}}}"#,
                string(&f.title),
                string(&f.x_label),
                string(&f.y_label),
                list(&f.series, series)
            )
        });
        let rows = list(&self.rows, |r| {
            let (name, value, unit) = (string(&r.name), number(r.value), string(&r.unit));
            format!(r#"{{"name": {name}, "value": {value}, "unit": {unit}}}"#)
        });
        let checks = list(&self.checks, |c| {
            let (name, detail) = (string(&c.name), string(&c.detail));
            format!(r#"{{"name": {name}, "pass": {}, "detail": {detail}}}"#, c.pass)
        });
        format!(
            r#"{{"case": {}, "params": {{{}}}, "figures": {figures}, "rows": {rows}, "checks": {checks}}}"#,
            string(&self.case),
            params.join(", ")
        )
    }
}

/// Which side of its bound a gated value must stay on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The value must be at least this.
    AtLeast(f64),
    /// The value must be at most this.
    AtMost(f64),
}

/// A smoke gate over a [`Report`]'s rows: the row `num`, or the ratio
/// `num / den` of two rows measured in the same run, against a bound.
/// A missing row fails the gate and names the row; so does a value
/// that is not a number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Row gated, or the ratio's numerator.
    pub num: &'static str,
    /// The in-run baseline row the ratio is taken against, if any.
    pub den: Option<&'static str>,
    /// The floor or ceiling.
    pub bound: Bound,
}

impl Gate {
    /// Evaluates the gate on `report`'s rows; the check is named after
    /// what it divides.
    pub fn eval(&self, report: &Report) -> Check {
        let name = self.den.map_or(self.num.to_owned(), |den| format!("{} / {den}", self.num));
        let row = |r: &str| report.value(r).ok_or_else(|| format!("missing row `{r}`"));
        let value = row(self.num).and_then(|num| Ok(num / self.den.map_or(Ok(1.0), row)?));
        let value = match value {
            Ok(value) => value,
            Err(detail) => return Check { name, pass: false, detail },
        };
        // NaN compares false with everything, so it fails either bound.
        let (pass, need) = match self.bound {
            Bound::AtLeast(floor) => (value >= floor, format!("≥ {floor}")),
            Bound::AtMost(ceiling) => (value <= ceiling, format!("≤ {ceiling}")),
        };
        Check { name, pass, detail: format!("{value:.3} (need {need})") }
    }
}

/// The data directories of one case run, removed when the guard drops
/// unless [`DataDir::keep`] was called (the driver calls it, and prints
/// the path, when a check failed).
#[derive(Debug)]
pub struct DataDir {
    root: PathBuf,
    next: Cell<usize>,
    keep: Cell<bool>,
}

impl DataDir {
    /// A fresh root under the system temp directory.
    pub fn new(case: &str) -> DataDir {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "sstore-bench-{case}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Relaxed)
        ));
        DataDir { root, next: Cell::new(0), keep: Cell::new(false) }
    }

    /// A path no engine has used yet, for one engine's logs and
    /// checkpoints.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.replace(self.next.get() + 1);
        self.root.join(format!("{tag}-{n}"))
    }

    /// Where everything is.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    /// Leaves the directories on disk when the guard drops.
    pub fn keep(&self) {
        self.keep.set(true);
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        if !self.keep.get() {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

/// Starts an engine, panicking on failure (bench convenience).
pub fn start(config: EngineConfig, app: App) -> Engine {
    Engine::start(config, app).expect("engine start")
}

/// Throughput in ops/sec.
pub fn per_sec(n: u64, d: Duration) -> f64 {
    n as f64 / d.as_secs_f64()
}

/// The `q`-quantile (0.5 = median) of `samples`, nearest rank; the
/// upper of two middle values for an even count.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * q).round() as usize]
}

/// Measures `sides` things alternately — side 0, side 1, …, side 0, …
/// for `rounds` rounds, so drift hits them equally — and returns each
/// side's median. This is what makes a ratio of two rows a property of
/// the code rather than of the machine.
pub fn interleaved(rounds: usize, sides: usize, mut measure: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut samples = vec![Vec::with_capacity(rounds); sides];
    for _ in 0..rounds {
        for (side, s) in samples.iter_mut().enumerate() {
            s.push(measure(side));
        }
    }
    samples.iter_mut().map(|s| quantile(s, 0.5)).collect()
}

/// The burst loop: one warm-up batch through the full workflow, then
/// bursts of 16 batches between drains (the partition queue stays busy
/// without unbounded memory growth) for roughly `secs`. Returns
/// ingested tuples/sec, drained: every tuple's workflow completed.
pub fn run_for(
    engine: &Engine,
    stream: &str,
    mut make_batch: impl FnMut() -> Vec<Tuple>,
    secs: f64,
) -> f64 {
    engine.ingest(stream, make_batch()).expect("ingest");
    engine.drain().expect("drain");
    let deadline = Duration::from_secs_f64(secs);
    let start = Instant::now();
    let mut tuples = 0u64;
    while start.elapsed() < deadline {
        for _ in 0..16 {
            let batch = make_batch();
            tuples += batch.len() as u64;
            engine.ingest(stream, batch).expect("ingest");
        }
        engine.drain().expect("drain");
    }
    per_sec(tuples, start.elapsed())
}

/// What [`drive`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Driven {
    /// Wall time, including the final drain.
    pub elapsed: Duration,
    /// Workflows completed.
    pub workflows: u64,
    /// Batches offered.
    pub offered: u64,
}

/// Offers `batches` to `stream` and drains. Asynchronous ingest is
/// S-Store's natural streaming mode; `client_driven` is the H-Store
/// client loop (synchronous submit, then explicit driving of each
/// downstream step). With `pace = (rate, window)` batches are offered
/// at `rate` per second for at most `window` — the §4.5 input-rate
/// sweep — and otherwise back to back, all of them.
pub fn drive(
    engine: &Engine,
    stream: &str,
    batches: &[Vec<Tuple>],
    pace: Option<(f64, Duration)>,
    client_driven: bool,
) -> Driven {
    let before = engine.metrics().workflows_completed.load(Relaxed);
    let start = Instant::now();
    let mut offered = 0u64;
    for b in batches {
        if let Some((rate, window)) = pace {
            // Sleep (don't spin): on small hosts a spinning client
            // starves the engine threads of the core they need.
            let due = start + Duration::from_secs_f64(offered as f64 / rate);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            if start.elapsed() > window {
                break;
            }
        }
        if client_driven {
            let (_, outcome) = engine.ingest_sync(stream, b.clone()).expect("ingest");
            engine.drive(0, outcome).expect("drive");
        } else {
            engine.ingest(stream, b.clone()).expect("ingest");
        }
        offered += 1;
    }
    engine.drain().expect("drain");
    let workflows = engine.metrics().workflows_completed.load(Relaxed) - before;
    Driven { elapsed: start.elapsed(), workflows, offered }
}

/// What one open-loop phase measured.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Batches/sec actually offered.
    pub offered_bps: f64,
    /// Batches the admission edge rejected.
    pub shed: u64,
    /// Admitted batches/sec, over the phase including its drain.
    pub goodput_bps: f64,
    /// Most admission credits ever seen held on partition 0.
    pub max_in_flight: usize,
    /// Median and 99th percentile of the time a submission took to be
    /// answered, µs.
    pub rtt_us: [f64; 2],
    /// The engine's border-class latency over the phase.
    pub border: ClassLatency,
}

/// One open-loop phase: `clients` senders jointly offer `rate_bps`
/// batches/sec for `secs`, each on its own fixed schedule — arrivals do
/// not wait for completions, only for the answer to the submission in
/// hand. `connect(i)` makes client `i`'s "submit batch number n"
/// function, which returns whether the batch was admitted (`false` =
/// shed); an in-process `Engine::ingest` and a TCP session both fit. A
/// sampler thread records the most admission credits held in flight.
/// The engine's metrics are reset first and read after a final drain.
pub fn open_loop_phase<S: FnMut(u64) -> bool>(
    engine: &Engine,
    clients: usize,
    rate_bps: f64,
    secs: f64,
    connect: impl Fn(usize) -> S + Sync,
) -> Phase {
    engine.metrics().reset();
    let interval = Duration::from_secs_f64(clients as f64 / rate_bps);
    let deadline = Duration::from_secs_f64(secs);
    let stop = AtomicBool::new(false);
    let max_in_flight = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<(u64, Vec<f64>)> = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            while !stop.load(Relaxed) {
                max_in_flight.fetch_max(engine.admitted_in_flight(0), Relaxed);
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        let senders: Vec<_> = (0..clients)
            .map(|i| {
                let connect = &connect;
                s.spawn(move || {
                    let mut submit = connect(i);
                    let start = Instant::now();
                    let (mut shed, mut rtt_us) = (0u64, Vec::new());
                    loop {
                        let due = start + interval.mul_f64(rtt_us.len() as f64);
                        let now = Instant::now();
                        if now.duration_since(start) >= deadline {
                            break;
                        }
                        // Sleep, never spin: a sender behind schedule
                        // catches up back to back, and a spinning one
                        // would take the core the partition needs.
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let t0 = Instant::now();
                        shed += u64::from(!submit(rtt_us.len() as u64));
                        rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    (shed, rtt_us)
                })
            })
            .collect();
        let results = senders.into_iter().map(|h| h.join().expect("sender")).collect();
        stop.store(true, Relaxed);
        sampler.join().expect("sampler");
        results
    });
    engine.drain().expect("drain");
    let elapsed = start.elapsed();
    let shed: u64 = per_client.iter().map(|(s, _)| s).sum();
    let mut rtt_us: Vec<f64> = per_client.into_iter().flat_map(|(_, r)| r).collect();
    let attempted = rtt_us.len() as u64;
    Phase {
        offered_bps: per_sec(attempted, elapsed),
        shed,
        goodput_bps: per_sec(attempted - shed, elapsed),
        max_in_flight: max_in_flight.load(Relaxed),
        rtt_us: [0.50, 0.99].map(|q| quantile(&mut rtt_us, q)),
        border: engine.metrics().class_latency(TxnClass::Border),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::tuple;
    use sstore_workloads::micro;

    fn report_with(rows: &[(&str, f64)]) -> Report {
        let mut r = Report::new("t", &[]);
        for (name, value) in rows {
            r.row(*name, *value, "x");
        }
        r
    }

    const RATIO: Gate = Gate { num: "trend_us", den: Some("count_us"), bound: Bound::AtMost(10.0) };

    #[test]
    fn a_ratio_over_its_ceiling_fails_and_under_it_passes() {
        let over = RATIO.eval(&report_with(&[("trend_us", 21.0), ("count_us", 2.0)]));
        assert!(!over.pass, "{over:?}");
        assert!(over.detail.contains("10.5") && over.name == "trend_us / count_us", "{over:?}");
        assert!(RATIO.eval(&report_with(&[("trend_us", 19.0), ("count_us", 2.0)])).pass);
        let floor = Gate { bound: Bound::AtLeast(1.2), ..RATIO };
        assert!(!floor.eval(&report_with(&[("trend_us", 1.0), ("count_us", 1.0)])).pass);
        assert!(floor.eval(&report_with(&[("trend_us", 1.2), ("count_us", 1.0)])).pass);
    }

    #[test]
    fn a_missing_row_fails_with_the_rows_name() {
        for (rows, missing) in
            [(&[("count_us", 2.0)][..], "trend_us"), (&[("trend_us", 2.0)][..], "count_us")]
        {
            let c = RATIO.eval(&report_with(rows));
            assert!(!c.pass);
            assert!(c.detail.contains(missing), "{c:?}");
        }
    }

    #[test]
    fn nan_fails_either_bound() {
        let zero_over_zero = report_with(&[("trend_us", 0.0), ("count_us", 0.0)]);
        assert!(!RATIO.eval(&zero_over_zero).pass);
        assert!(!Gate { bound: Bound::AtLeast(0.0), ..RATIO }.eval(&zero_over_zero).pass);
        let plain = Gate { den: None, ..RATIO };
        assert!(!plain.eval(&report_with(&[("trend_us", f64::NAN)])).pass);
    }

    #[test]
    fn count_invariants_gate_a_row_by_itself() {
        let fired = Gate { num: "slides", den: None, bound: Bound::AtLeast(1.0) };
        assert!(fired.eval(&report_with(&[("slides", 3.0)])).pass);
        assert!(!fired.eval(&report_with(&[("slides", 0.0)])).pass);
    }

    #[test]
    fn harness_measures_both_modes_and_cleans_up() {
        let dir = DataDir::new("t");
        let batches: Vec<Vec<Tuple>> = (0..20i64).map(|v| vec![tuple![v]]).collect();
        let logging = sstore_engine::LoggingConfig { enabled: true, ..Default::default() };
        let config = EngineConfig::default().with_logging(logging).with_data_dir(dir.fresh("s"));
        let engine = start(config, micro::pe_chain(2));
        let run = drive(&engine, "wf_in", &batches, None, false);
        assert_eq!((run.workflows, run.offered), (20, 20));
        assert!(per_sec(run.workflows, run.elapsed) > 0.0);
        let paced = drive(&engine, "wf_in", &batches, Some((1e4, Duration::from_millis(1))), false);
        assert!(
            paced.offered >= 1 && paced.offered < 20,
            "the window cuts the offer short: {paced:?}"
        );
        let mut next = 0i64;
        let rate = run_for(
            &engine,
            "wf_in",
            || {
                next += 1;
                vec![tuple![next]]
            },
            0.01,
        );
        assert!(rate > 0.0);
        engine.shutdown();

        let engine =
            start(EngineConfig::hstore().with_data_dir(dir.fresh("h")), micro::pe_chain(2));
        assert_eq!(drive(&engine, "wf_in", &batches, None, true).workflows, 20);
        engine.shutdown();

        let root = dir.root().to_owned();
        assert!(root.exists());
        drop(dir);
        assert!(!root.exists(), "the guard removes its directory");
    }

    #[test]
    fn a_kept_directory_survives_its_guard() {
        let dir = DataDir::new("kept");
        std::fs::create_dir_all(dir.fresh("x")).unwrap();
        dir.keep();
        let root = dir.root().to_owned();
        drop(dir);
        assert!(root.exists());
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn quantiles_and_interleaved_medians() {
        assert_eq!(quantile(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&mut [4.0, 1.0, 3.0, 2.0], 0.5), 3.0);
        assert_eq!(quantile(&mut [1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
        assert!(quantile(&mut [], 0.5).is_nan());
        let mut calls = Vec::new();
        let medians = interleaved(3, 2, |side| {
            calls.push(side);
            (side * 10 + calls.len()) as f64
        });
        assert_eq!(calls, [0, 1, 0, 1, 0, 1]);
        assert_eq!(medians, [3.0, 14.0]);
    }

    #[test]
    fn text_rendering_keeps_the_figure_table_shape() {
        let mut fig =
            Figure::sweep(["test", "x", "y"], ["A", "B"], &[1.0, 2.0], |x| [x * 10.0, 5.0]);
        fig.series[1].points.pop();
        let mut r = Report::new("t", &[("n", 2.0)]);
        r.figures.push(fig);
        r.row("small", 0.96, "ratio");
        r.check("c", false, "why \"quoted\"");
        let text = r.to_text();
        assert!(text.starts_with(
            "\n== test ==\n   (y)\n           x                A                B      ratio\n"
        ));
        assert!(text.contains("         1.0             10.0              5.0       2.00\n"));
        assert!(text.contains("         2.0             20.0                -\n"));
        assert!(text.contains("small:        0.960 ratio"));
        assert!(text.contains("FAIL"));
        assert!(r.to_json().contains(r#""detail": "why \"quoted\"""#));
    }
}
