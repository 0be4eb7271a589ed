//! Result files and `bench compare A/ B/`.
//!
//! `run --out DIR` adds one file per run, so a directory holds as many
//! runs of each workload as were made into it. `compare` takes the
//! median of each end-to-end metric on each side and judges the change
//! against that metric's bound from `BENCHMARK.json` — or calls it
//! unresolved when either side's own runs spread wider than the bound.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::registry::{self, Better, END_TO_END};
use crate::stats;

/// Writes `<workload>[.trace].<n>.json` with the first free `n`.
pub fn write_result(dir: &Path, workload: &str, trace: bool, file: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let kind = if trace { ".trace" } else { "" };
    let path = (0..)
        .map(|n| dir.join(format!("{workload}{kind}.{n}.json")))
        .find(|p| !p.exists())
        .expect("a free index exists");
    std::fs::write(path, file.render() + "\n")
}

/// workload → metric → values, from the untraced result files of `dir`.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &Path) -> Result<Values, String> {
    let mut out = Values::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(e.path()).map_err(|e| format!("{name}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        if doc.get("trace").and_then(Json::as_bool) != Some(false) {
            continue; // per-layer metrics have no bounds to apply
        }
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{name}: the run failed its correctness checks"));
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        for (metric, v) in doc
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            if let Some(x) = v.get("value").and_then(Json::as_f64) {
                out.entry(workload.clone())
                    .or_default()
                    .entry(metric.clone())
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(out)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    Unresolved,
}

/// Judges side B against side A. `worse_by` is the relative change in
/// the bad direction (negative when B improved).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (
        stats::median(&mut a.to_vec()),
        stats::median(&mut b.to_vec()),
    );
    let change = (mb - ma) / ma.abs();
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let wide = |v: &[f64]| stats::relative_spread(v).is_some_and(|s| s > bound);
    let verdict = if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (verdict, worse_by)
}

pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let bounds = match registry::validate(registry::BENCHMARK_JSON) {
        Ok(b) => b,
        Err(errs) => {
            eprintln!("registry invalid:\n  {}", errs.join("\n  "));
            return ExitCode::from(2);
        }
    };
    let (va, vb) = match (load(a), load(b)) {
        (Ok(va), Ok(vb)) => (va, vb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut any_worse = false;
    let mut rows = 0;
    println!("workload metric unit median_a median_b worse_by bound runs_a runs_b verdict");
    for (workload, metrics_a) in &va {
        let Some(metrics_b) = vb.get(workload) else {
            continue;
        };
        for m in END_TO_END {
            let (Some(xa), Some(xb)) = (metrics_a.get(m.name), metrics_b.get(m.name)) else {
                continue;
            };
            let bound = bounds.of(m.name).expect("validated");
            let (verdict, worse_by) = judge(xa, xb, m.better, bound);
            any_worse |= verdict == Verdict::Worse;
            rows += 1;
            println!(
                "{workload} {} {} {:.4} {:.4} {:+.4} {bound} {} {} {}",
                m.name,
                m.unit,
                stats::median(&mut xa.clone()),
                stats::median(&mut xb.clone()),
                worse_by,
                xa.len(),
                xb.len(),
                match verdict {
                    Verdict::Better => "better",
                    Verdict::Worse => "worse",
                    Verdict::Within => "within-bound",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if rows == 0 {
        eprintln!("no workload has untraced results in both directories");
        return ExitCode::from(2);
    }
    if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.0];
        // Lower is better: +20 % is worse, −20 % better, +3 % within 5 %.
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0], Better::Lower, 0.05).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[80.0, 81.0, 79.0], Better::Lower, 0.05).0,
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[103.0, 103.5, 102.5], Better::Lower, 0.05).0,
            Verdict::Within
        );
        // Higher is better flips the sign.
        let (v, by) = judge(&a, &[80.0, 81.0, 79.0], Better::Higher, 0.05);
        assert_eq!(v, Verdict::Worse);
        assert!((by - 0.2).abs() < 1e-9);
        // A side whose own runs disagree by more than the bound resolves nothing.
        assert_eq!(
            judge(&a, &[80.0, 120.0, 100.0, 60.0], Better::Lower, 0.05).0,
            Verdict::Unresolved
        );
        // A single run per side has no spread to object to.
        assert_eq!(
            judge(&[100.0], &[104.0], Better::Lower, 0.05).0,
            Verdict::Within
        );
    }

    #[test]
    fn result_files_take_the_next_free_index_and_load_back() {
        let dir = crate::host::fresh_dir("compare-test");
        let file = |v: f64, trace: bool| {
            Json::obj(vec![
                ("workload", Json::Str("w".into())),
                ("trace", Json::Bool(trace)),
                ("correct", Json::Bool(true)),
                (
                    "metrics",
                    Json::obj(vec![("setup_s", Json::obj(vec![("value", Json::Num(v))]))]),
                ),
            ])
        };
        write_result(&dir, "w", false, &file(1.0, false)).unwrap();
        write_result(&dir, "w", false, &file(2.0, false)).unwrap();
        write_result(&dir, "w", true, &file(9.0, true)).unwrap();
        let mut got = load(&dir).unwrap()["w"]["setup_s"].clone();
        got.sort_by(f64::total_cmp);
        assert_eq!(got, vec![1.0, 2.0], "traced results are not compared");
        let _ = std::fs::remove_dir_all(dir);
    }
}
