//! Differential SQL fuzzer CLI.
//!
//! ```text
//! sqlfuzz --seeds 2000            # sweep seeds 0..2000
//! sqlfuzz --seeds 500 --start 100 # sweep seeds 100..600
//! sqlfuzz --seed 42               # replay exactly one seed
//! sqlfuzz --seeds 100000 --time-box 60
//! sqlfuzz --large --seeds 200     # large-table mode (gen::generate_large)
//! SQLFUZZ_SEED=42 sqlfuzz        # env form of --seed
//! ```
//!
//! On the first divergence the failing case is greedily shrunk to a
//! minimal repro, the repro script and divergence are printed, and the
//! process exits 1. A clean sweep exits 0.

use std::time::{Duration, Instant};

use sqlfuzz::driver::run_case;
use sqlfuzz::gen::{generate, generate_large};
use sqlfuzz::shrink::shrink;

struct Opts {
    seeds: u64,
    start: u64,
    single: Option<u64>,
    time_box: Option<Duration>,
    no_shrink: bool,
    large: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        seeds: 200,
        start: 0,
        single: None,
        time_box: None,
        no_shrink: false,
        large: false,
    };
    if let Ok(s) = std::env::var("SQLFUZZ_SEED") {
        let n = s.parse().map_err(|_| format!("bad SQLFUZZ_SEED: {s}"))?;
        opts.single = Some(n);
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse()
                .map_err(|_| format!("{name} needs a number"))
        };
        match arg.as_str() {
            "--seeds" => opts.seeds = num("--seeds")?,
            "--start" => opts.start = num("--start")?,
            "--seed" => opts.single = Some(num("--seed")?),
            "--time-box" => opts.time_box = Some(Duration::from_secs(num("--time-box")?)),
            "--no-shrink" => opts.no_shrink = true,
            "--large" => opts.large = true,
            "--help" | "-h" => {
                println!(
                    "usage: sqlfuzz [--seeds N] [--start N] [--seed N] \
                     [--time-box SECS] [--no-shrink] [--large]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sqlfuzz: {e}");
            std::process::exit(2);
        }
    };

    let (lo, hi) = match opts.single {
        Some(s) => (s, s + 1),
        None => (opts.start, opts.start + opts.seeds),
    };

    let started = Instant::now();
    let mut ran = 0u64;
    for seed in lo..hi {
        if let Some(limit) = opts.time_box {
            if started.elapsed() >= limit {
                println!(
                    "sqlfuzz: time box hit after {ran} seeds ({}..{seed}); clean so far",
                    lo
                );
                return;
            }
        }
        let case = if opts.large { generate_large(seed) } else { generate(seed) };
        let Some(div) = run_case(&case) else {
            ran += 1;
            if ran % 100 == 0 {
                println!(
                    "sqlfuzz: {ran} seeds clean ({:.1}s)",
                    started.elapsed().as_secs_f64()
                );
            }
            continue;
        };

        eprintln!("sqlfuzz: DIVERGENCE at seed {seed}");
        eprintln!("{div}");
        let minimal = if opts.no_shrink {
            case
        } else {
            eprintln!("sqlfuzz: shrinking...");
            let small = shrink(&case, 400, |c| run_case(c).is_some());
            // Report the divergence of the shrunk case, not the original.
            if let Some(d) = run_case(&small) {
                eprintln!("sqlfuzz: shrunk divergence:");
                eprintln!("{d}");
            }
            small
        };
        eprintln!("\n--- minimal repro (seed {seed}) ---");
        eprintln!("{}", minimal.script());
        eprintln!("--- end repro ---");
        eprintln!(
            "replay with: SQLFUZZ_SEED={seed} cargo run -p sqlfuzz --release{}",
            if opts.large { " -- --large" } else { "" }
        );
        std::process::exit(1);
    }
    println!(
        "sqlfuzz: {} seeds clean in {:.1}s ({}..{})",
        hi - lo,
        started.elapsed().as_secs_f64(),
        lo,
        hi
    );
}
