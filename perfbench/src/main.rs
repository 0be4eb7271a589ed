//! The repo's benchmark driver. See `README.md` beside this crate and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1     one run; last stdout line is the result JSON
//! bench run [--workload NAME|all] [--seed N] [--seconds S] [--trace] [--smoke] [--out DIR]
//! bench list                                                 workloads and metrics; checks the registry
//! bench compare A/ B/                                        two --out directories against the bounds
//! ```

mod compare;
mod host;
mod json;
mod layers;
mod model;
mod pace;
mod registry;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use registry::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Report, RunArgs};

/// Counts shrink to this share under `--smoke` (and in `cargo test`):
/// enough to drive every public call the driver makes, not to measure.
pub const SMOKE_SCALE: f64 = 0.02;

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run_flags(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        seed: 1,
        seconds: default_seconds(),
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value("--workload")?,
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or bare `--trace`.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// `run_seconds` of the embedded BENCHMARK.json.
fn default_seconds() -> f64 {
    Json::parse(registry::BENCHMARK_JSON)
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(10.0)
}

/// Prints one line per metric and returns the `metrics` object, or the
/// registry names the workload failed to report.
fn render_metrics(
    workload: &str,
    table: &[Metric],
    kind: &str,
    reported: &[workloads::Reported],
) -> Result<Json, Vec<String>> {
    let mut out = Vec::new();
    let mut missing = Vec::new();
    for m in table {
        match reported.iter().find(|(n, _, _)| *n == m.name) {
            Some(&(_, value, samples)) if value.is_finite() => {
                println!("{workload} {} {value} {} {kind} {samples}", m.name, m.unit);
                out.push((
                    m.name.to_owned(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(m.unit.into())),
                        ("samples", Json::Num(samples as f64)),
                    ]),
                ));
            }
            Some(_) => missing.push(format!("{} is not a finite number", m.name)),
            None => missing.push(format!("{} was not reported", m.name)),
        }
    }
    for (name, _, _) in reported {
        if !table.iter().any(|m| m.name == *name) {
            missing.push(format!("{name} is not in the registry"));
        }
    }
    if missing.is_empty() {
        Ok(Json::Obj(out))
    } else {
        Err(missing)
    }
}

/// Strips `samples` so the last line has exactly the contract's shape.
fn contract_metrics(metrics: &Json) -> Json {
    Json::Obj(
        metrics
            .as_obj()
            .unwrap_or_default()
            .iter()
            .map(|(k, v)| {
                let keep = |f: &str| (f.to_owned(), v.get(f).cloned().unwrap_or(Json::Null));
                (k.clone(), Json::Obj(vec![keep("value"), keep("unit")]))
            })
            .collect(),
    )
}

fn run_one(cli: &Cli) -> ExitCode {
    if cfg!(debug_assertions) && !cli.smoke {
        eprintln!("refusing to measure a debug build: build with --release (or pass --smoke)");
        return ExitCode::from(2);
    }
    if let Err(errs) = registry::validate(registry::BENCHMARK_JSON) {
        eprintln!(
            "registry and BENCHMARK.json disagree:\n  {}",
            errs.join("\n  ")
        );
        return ExitCode::from(2);
    }
    if registry::workload(&cli.workload).is_none() {
        eprintln!("unknown workload {:?}; try `bench list`", cli.workload);
        return ExitCode::from(2);
    }
    let args = RunArgs {
        seed: cli.seed,
        seconds: if cli.smoke {
            cli.seconds * SMOKE_SCALE
        } else {
            cli.seconds
        },
        scale: if cli.smoke { SMOKE_SCALE } else { 1.0 },
        trace: cli.trace,
        out_dir: cli.out.clone().unwrap_or_else(host::data_root),
        setup_reps: if cli.smoke { 1 } else { 3 },
    };
    let _ = std::fs::create_dir_all(&args.out_dir);
    let report: Report = workloads::run(&cli.workload, &args).expect("workload exists");
    host::cleanup();

    for n in &report.notes {
        println!("note {} {n}", cli.workload);
    }
    for c in report.checks.iter().filter(|c| !c.ok) {
        eprintln!("CHECK FAILED {} {}: {}", cli.workload, c.name, c.detail);
    }
    let (table, kind, reported) = if cli.trace {
        (&PER_LAYER[..], "layer", &report.layer)
    } else {
        (&END_TO_END[..], "e2e", &report.e2e)
    };
    let metrics = match render_metrics(&cli.workload, table, kind, reported) {
        Ok(m) => m,
        Err(missing) => {
            eprintln!(
                "SHAPE VIOLATION {}:\n  {}",
                cli.workload,
                missing.join("\n  ")
            );
            return ExitCode::from(3);
        }
    };
    let correct = report.correct();
    if let Some(dir) = &cli.out {
        let file = Json::obj(vec![
            ("workload", Json::Str(cli.workload.clone())),
            ("seed", Json::Num(cli.seed as f64)),
            ("seconds", Json::Num(cli.seconds)),
            ("trace", Json::Bool(cli.trace)),
            ("smoke", Json::Bool(cli.smoke)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(report.attempted as f64)),
            ("failed", Json::Num(report.failed as f64)),
            ("metrics", metrics.clone()),
            ("host", host::record()),
        ]);
        if let Err(e) = compare::write_result(dir, &cli.workload, cli.trace, &file) {
            eprintln!("cannot write result under {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", contract_metrics(&metrics)),
    ]);
    println!("{}", line.render());
    if correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--workload all`: one child process per workload, so set-up time and
/// peak memory are each workload's own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut worst = ExitCode::SUCCESS;
    for w in WORKLOADS {
        let mut child_args: Vec<String> = vec!["run".into(), "--workload".into(), w.name.into()];
        let mut skip = false;
        for a in args {
            if skip {
                skip = false;
            } else if a == "--workload" {
                skip = true;
            } else {
                child_args.push(a.clone());
            }
        }
        let status = std::process::Command::new(&exe).args(&child_args).status();
        if !status.as_ref().is_ok_and(|s| s.success()) {
            eprintln!("{} failed: {status:?}", w.name);
            worst = ExitCode::from(1);
        }
    }
    worst
}

fn list() -> ExitCode {
    let bounds = match registry::validate(registry::BENCHMARK_JSON) {
        Ok(b) => b,
        Err(errs) => {
            eprintln!("registry invalid:\n  {}", errs.join("\n  "));
            return ExitCode::from(2);
        }
    };
    for w in WORKLOADS {
        println!("workload {}", w.name);
        for (role, what) in ["throughput_per_s", "latency_p50_us", "second_p50_us"]
            .iter()
            .zip(w.roles)
        {
            println!("    {role}: {what}");
        }
    }
    for m in END_TO_END {
        let bound = bounds.of(m.name).expect("validated");
        println!(
            "e2e {} {} {} bound={bound} — {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.about
        );
    }
    for m in PER_LAYER {
        println!(
            "layer {} {} {} — {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.about
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") => ("run", &argv[..]),
        Some(cmd) => (cmd, &argv[1..]),
        None => ("help", &argv[..]),
    };
    match cmd {
        "run" => match parse_run_flags(rest) {
            Ok(cli) if cli.workload == "all" => run_all(rest),
            Ok(cli) => run_one(&cli),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        "list" => list(),
        "compare" => match rest {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("usage: bench compare A/ B/");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!(
                "usage: bench [run] --workload NAME|all [--seed N] [--seconds S] [--trace [0|1]] \
                 [--smoke] [--out DIR]\n       bench list\n       bench compare A/ B/"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn the_drivers_flag_form_parses() {
        let cli = parse_run_flags(&strs(&[
            "--workload",
            "voter_wire",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (cli.workload.as_str(), cli.seed, cli.seconds, cli.trace),
            ("voter_wire", 7, 12.0, true)
        );
        let cli = parse_run_flags(&strs(&["--trace", "0", "--seed", "2"])).unwrap();
        assert!(!cli.trace && cli.seed == 2 && cli.workload == "all");
        let cli = parse_run_flags(&strs(&["--trace", "--smoke"])).unwrap();
        assert!(cli.trace && cli.smoke);
        assert!(parse_run_flags(&strs(&["--seconds", "0"])).is_err());
        assert!(parse_run_flags(&strs(&["--bogus"])).is_err());
    }

    #[test]
    fn a_missing_or_unknown_metric_is_a_shape_violation() {
        let ok: Vec<workloads::Reported> = END_TO_END.iter().map(|m| (m.name, 1.5, 1)).collect();
        assert!(render_metrics("w", &END_TO_END, "e2e", &ok).is_ok());
        let errs = render_metrics("w", &END_TO_END, "e2e", &ok[1..]).unwrap_err();
        assert!(errs[0].contains("setup_s"));
        let mut extra = ok.clone();
        extra.push(("made_up", 1.0, 1));
        assert!(render_metrics("w", &END_TO_END, "e2e", &extra).is_err());
        let mut nan = ok;
        nan[0].1 = f64::NAN;
        assert!(render_metrics("w", &END_TO_END, "e2e", &nan).is_err());
    }
}
