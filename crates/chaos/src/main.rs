//! Deterministic chaos runner: the CLI over the `chaos` library.
//!
//! Generates seeded scenarios — multi-partition workloads with
//! out-of-order event time, exchange hops, window slides, ad-hoc SQL,
//! and overload shedding — and runs each against a real engine on a
//! fault-injecting in-memory VFS with scheduled crash points, in BOTH
//! recovery modes, checking final state and metrics against a
//! single-threaded model oracle.
//!
//! ```text
//! cargo run -p chaos -- --seeds 500          # the acceptance run
//! cargo run -p chaos -- --seeds 200 --time-box 120   # CI smoke
//! CHAOS_SEED=1234 cargo run -p chaos         # replay one failure
//! cargo run -p chaos -- --seed 1234 --mode weak
//! cargo run -p chaos -- --seeds 500 --mode longrun  # log-lifecycle soak
//! ```
//!
//! Exit code 0 = zero oracle divergences. On failure the reproducing
//! seed is printed, the scenario is greedily shrunk, and the minimal
//! reproducer is dumped.

use std::time::Instant;

use chaos::{harness, shrink, workload};
use sstore_engine::RecoveryMode;

fn mode_name(m: RecoveryMode) -> &'static str {
    match m {
        RecoveryMode::Strong => "strong",
        RecoveryMode::Weak => "weak",
    }
}

fn main() {
    let mut seeds: u64 = 100;
    let mut start: u64 = 1;
    let mut single: Option<u64> = None;
    let mut modes = vec![RecoveryMode::Strong, RecoveryMode::Weak];
    let mut time_box: Option<u64> = None;
    let mut do_shrink = true;
    let mut longrun = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let take = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).unwrap_or_else(|| panic!("{flag} needs a value")).clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => seeds = take(&args, &mut i, "--seeds").parse().expect("--seeds N"),
            "--start" => start = take(&args, &mut i, "--start").parse().expect("--start N"),
            "--seed" => single = Some(take(&args, &mut i, "--seed").parse().expect("--seed N")),
            "--time-box" => {
                time_box = Some(take(&args, &mut i, "--time-box").parse().expect("--time-box S"))
            }
            "--no-shrink" => do_shrink = false,
            "--mode" => {
                modes = match take(&args, &mut i, "--mode").as_str() {
                    "strong" => vec![RecoveryMode::Strong],
                    "weak" => vec![RecoveryMode::Weak],
                    "both" => vec![RecoveryMode::Strong, RecoveryMode::Weak],
                    "longrun" => {
                        // 3-5x op count, periodic checkpoints, aggressive
                        // segment GC — exercises the full log lifecycle.
                        longrun = true;
                        vec![RecoveryMode::Strong, RecoveryMode::Weak]
                    }
                    m => panic!("unknown --mode {m} (strong|weak|both|longrun)"),
                }
            }
            a => panic!("unknown argument {a}"),
        }
        i += 1;
    }
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        single = Some(s.parse().expect("CHAOS_SEED must be a u64"));
    }

    let t0 = Instant::now();
    let seed_list: Vec<u64> = match single {
        Some(s) => vec![s],
        None => (start..start + seeds).collect(),
    };
    let total = seed_list.len();
    let mut ran = 0usize;
    let mut schedules = 0usize;
    let mut restarts = 0u64;
    let mut sheds = 0u64;
    let mut acks = 0u64;
    for (idx, seed) in seed_list.into_iter().enumerate() {
        if let Some(limit) = time_box {
            if t0.elapsed().as_secs() >= limit {
                println!(
                    "chaos: time box ({limit}s) reached after {ran}/{total} seeds — stopping clean"
                );
                break;
            }
        }
        let sc =
            if longrun { workload::generate_longrun(seed) } else { workload::generate(seed) };
        if single.is_some() {
            println!("scenario for seed {seed}: {sc:#?}");
        }
        for &mode in &modes {
            schedules += 1;
            match harness::run_scenario(&sc, mode) {
                Ok(stats) => {
                    restarts += u64::from(stats.restarts);
                    sheds += stats.sheds;
                    acks += stats.acks as u64;
                    continue;
                }
                Err(divergence) => run_failed(&sc, mode, seed, &divergence, do_shrink),
            }
            fn run_failed(
                sc: &workload::Scenario,
                mode: RecoveryMode,
                seed: u64,
                divergence: &str,
                do_shrink: bool,
            ) -> ! {
                eprintln!("chaos: DIVERGENCE at seed {seed} ({} mode):", mode_name(mode));
                eprintln!("  {divergence}");
                eprintln!("  reproduce with: CHAOS_SEED={seed} cargo run -p chaos -- --mode {}",
                    mode_name(mode));
                if do_shrink {
                    eprintln!("chaos: shrinking…");
                    let minimal = shrink::shrink(sc, 150, |cand| {
                        harness::run_scenario(cand, mode).err()
                    });
                    let still = harness::run_scenario(&minimal, mode).err();
                    eprintln!(
                        "chaos: minimal reproducer ({} ops, {} crashes, {} io faults):\n{minimal:#?}",
                        minimal.ops.len(),
                        minimal.crashes.len(),
                        minimal.io_faults.len(),
                    );
                    if let Some(d) = still {
                        eprintln!("chaos: minimal divergence: {d}");
                    }
                }
                std::process::exit(1);
            }
        }
        ran += 1;
        if (idx + 1) % 25 == 0 {
            println!("chaos: {}/{} seeds ok ({:.1}s)", idx + 1, total, t0.elapsed().as_secs_f64());
        }
    }
    println!(
        "chaos: OK — {ran} seeds × {} mode(s) = {schedules} schedules, zero oracle divergences \
         ({:.1}s; {restarts} crash/restart cycles survived, {acks} ops acked, {sheds} \
         sub-requests shed)",
        modes.len(),
        t0.elapsed().as_secs_f64()
    );
}
