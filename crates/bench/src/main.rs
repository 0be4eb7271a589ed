//! `sstore-bench <case> [--secs S] [--scale K] [--json]` — see
//! EXPERIMENTS.md. Exits 1 if a check of the report failed.

use std::process::ExitCode;

use sstore_bench::cases::{self, CASES, SMOKE};
use sstore_bench::Params;

fn usage() -> String {
    let mut s = String::from(
        "usage: sstore-bench <case> [--secs S] [--scale K] [--json]\n\n\
         \x20 --secs S    seconds per timed run, for the time-based cases\n\
         \x20 --scale K   multiplies the default input size, for the count-based ones\n\
         \x20 --json      one JSON object per report instead of tables\n\ncases:\n",
    );
    let names: Vec<&str> = CASES.iter().map(|c| c.name).collect();
    s.push_str(&format!(
        "  {}\n  smoke (the gated cases at smoke length; fails if any gate does)\n",
        names.join(" ")
    ));
    s.push_str("\nEXPERIMENTS.md says what each case measures.\n");
    s
}

fn parse(args: &[String]) -> Result<(String, Params, bool), String> {
    let (mut case, mut params, mut json) = (None, Params::default(), false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut number = |what: &str| {
            let v = it.next().ok_or(format!("{what} needs a value"))?;
            v.parse::<f64>()
                .ok()
                .filter(|v| *v > 0.0)
                .ok_or(format!("{what}: `{v}` is not a positive number"))
        };
        match arg.as_str() {
            "--secs" => params.secs = Some(number("--secs")?),
            "--scale" => params.scale = number("--scale")?,
            "--json" => json = true,
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            name if case.is_none() => case = Some(name.to_owned()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    Ok((case.ok_or("no case named")?, params, json))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let (name, params, json) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("sstore-bench: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let runs = if name == "smoke" { SMOKE.to_vec() } else { vec![(name.as_str(), params)] };
    let mut passed = true;
    for (case, at) in runs {
        let Some(case) = cases::find(case) else {
            eprintln!("sstore-bench: no case `{case}`\n\n{}", usage());
            return ExitCode::from(2);
        };
        let report = cases::run(case, &at);
        if json {
            println!("{}", report.to_json());
        } else {
            print!("{}", report.to_text());
        }
        passed &= report.passed();
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        eprintln!("sstore-bench {name}: FAILED (see the FAIL lines above)");
        ExitCode::FAILURE
    }
}
